//! `bitmod` — bitstream inspection and modification tool.
//!
//! ```text
//! bitmod findlut <file> <name-or-formula> [--stride N] [--json]
//! bitmod table2  <file> [--stride N] [--json]
//! bitmod xorscan <file> [--stride N] [--window A..B]
//! bitmod packets <file>
//! bitmod crc     <file> (--disable | --recompute) [-o OUT]
//! bitmod diff    <file> <other-file>
//! bitmod attack  [--noisy] [--seed N] [--glitch P] [--load-fail P]
//!                [--burst E,X,G] [--drift P] [--stuck MASK] [--adaptive]
//!                [--votes N] [--budget N] [--stride N] [--deadline-ms N]
//!                [--journal PATH] [--resume] [--trace PATH] [--batch]
//!                [--partial] [--encrypted] [--sca-traces N]
//! bitmod serve   [--addr ADDR] [--root DIR] [--workers N]
//!                [--idle-timeout-ms N] [--chaos-seed N] [--chaos-drop P]
//!                [--chaos-partial P] [--chaos-garble P] [--chaos-delay P]
//!                [--chaos-dup P]
//! bitmod submit  [--addr ADDR] [client flags] [attack spec flags...]
//! bitmod status  [--addr ADDR] [client flags] [ID]
//! bitmod tail    [--addr ADDR] [client flags] ID
//! bitmod cancel  [--addr ADDR] [client flags] ID
//! bitmod shutdown [--addr ADDR] [client flags]
//! ```
//!
//! Client flags (every client subcommand): `--connect-timeout MS`
//! (default 5000), `--read-timeout MS` (default 30000) and
//! `--retries N` (default 2) — the deadlines and transport-failure
//! retry budget behind every request. A dead daemon surfaces as a
//! typed timeout instead of a hang; a flaky wire is retried with
//! exponential, jittered backoff, and retried submits carry an
//! idempotency token so they never double-enqueue.
//!
//! `attack` builds the simulated SNOW 3G victim board (ETSI Test
//! Set 1) and runs the full key-recovery pipeline against it. With
//! `--noisy` the board injects seeded faults (per-bit keystream
//! glitches, transient load failures, timeouts, truncated reads) and
//! the attack survives them through the resilience layer; `--budget`
//! caps the number of physical device configurations, and hitting it
//! prints a structured partial result. With `--journal` the attack
//! checkpoints to a crash-safe journal after every completed work
//! item, and `--resume` continues a killed or budget-cut run from
//! that journal, replaying the exact query trace an uninterrupted
//! run would have produced. With `--trace` the attack streams
//! telemetry events (NDJSON, one object per line: phase spans, oracle
//! queries, journal writes, board fault accounting) to the given path
//! and appends a summary table — recording is inert, so the traced
//! run is bit-identical to an untraced one. With `--batch` the attack
//! issues up to 64 oracle queries per call, evaluated bit-parallel by
//! the 64-lane gang simulator; without it the same phases issue one
//! query per call, each load a one-lane gang pass. Both widths run one
//! code path, and the recovered key, per-query keystreams and load
//! accounting are identical; width 64 is only faster. With `--partial` each candidate ships as a frame-delta
//! partial-reconfiguration stream against the image the previous load
//! left on the device — the first load is full, every later one
//! writes only the touched frames (rollbacks ride the next delta),
//! and candidates the forge cannot express fall back to full loads,
//! so the recovered key and logical query trace are identical to a
//! full-load run while configuration traffic drops by well over an
//! order of magnitude. With `--encrypted` the victim's bitstream sits in flash as
//! the Fig. 1 secure container (AES-256-CBC + HMAC-SHA-256): the
//! attack first spends `--sca-traces` power traces recovering the
//! on-chip AES key, then runs the whole pipeline over the ciphertext
//! through the seekable CBC patch oracle — each of the ~545 candidate
//! loads re-encrypts only the CBC blocks its LUT edit touches. The
//! recovered key, query trace and load accounting are identical to
//! the plaintext run; an insufficient trace budget is a structured
//! partial result, resumable by re-running with a larger budget.
//! Every flag combination is validated up front through the
//! session-spec builder.
//!
//! `serve` runs the attack-as-a-service daemon: a work-stealing fleet
//! of workers over a session store rooted at `--root`, behind a
//! line-protocol server on `--addr` (a TCP address, or a Unix socket
//! path / `unix:PATH`). `--idle-timeout-ms` closes connections whose
//! reads stall past the deadline, and the `--chaos-*` flags wrap every
//! accepted connection in the seeded fault injector (drop, partial
//! write, garble, delay, duplicate — for soak-testing clients against
//! a hostile wire; rates are probabilities per I/O operation). `submit`, `status`, `tail`, `cancel` and
//! `shutdown` are the thin client: `submit` takes the same spec flags
//! as `attack` (minus the local-only `--journal`/`--resume`/`--trace`
//! — the server owns each session's journal and trace inside its
//! root) and prints the session id; `tail` streams the session's live
//! NDJSON telemetry until it is terminal. `status` with no id lists
//! every session plus the fleet's board-health report: one line per
//! worker board (healthy/suspect/dead with its injected-fault rate)
//! and the observed-vs-injected fault gap — faults the boards
//! injected that the attack never saw because voting and retries
//! absorbed them.
//!
//! Functions are catalogue names (`f2`, `m0b`, ...) or formulas over
//! `a1..a6`, e.g. `"(a1^a2^a3) a4 a5 ~a6"`. With `--json`, `findlut`
//! and `table2` emit one stable JSON record per hit instead of the
//! human-readable report (see [`cli::lut_hit_json`]).

use std::process::ExitCode;

use bitmod::cli;
use bitmod::fleet::{
    wire, ClientConfig, Endpoint, Fleet, FleetClient, FleetConfig, FleetServer, SessionSpec,
};
use bitstream::Bitstream;

/// Parses the attack/submit spec flags through the validating
/// builder. `local` admits the local-only flags
/// (`--journal`/`--resume`/`--trace`); submissions reject them with a
/// pointer at the server-owned layout.
fn parse_spec(rest: &[String], local: bool) -> Result<SessionSpec, Box<dyn std::error::Error>> {
    let mut b = SessionSpec::builder();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        b = match arg.as_str() {
            "--noisy" => b.noisy(true),
            "--seed" => b.seed(it.next().ok_or("--seed needs a value")?.parse()?),
            "--glitch" => b.glitch(it.next().ok_or("--glitch needs a value")?.parse()?),
            "--load-fail" => b.load_fail(it.next().ok_or("--load-fail needs a value")?.parse()?),
            "--votes" => b.votes(it.next().ok_or("--votes needs a value")?.parse()?),
            "--budget" => b.budget(it.next().ok_or("--budget needs a value")?.parse()?),
            "--stride" => b.stride(it.next().ok_or("--stride needs a value")?.parse()?),
            "--deadline-ms" => {
                b.deadline_ms(it.next().ok_or("--deadline-ms needs a value")?.parse()?)
            }
            "--adaptive" => b.adaptive(true),
            "--burst" => {
                let spec = it.next().ok_or("--burst needs ENTER,EXIT,GLITCH")?;
                let mut parts = spec.split(',');
                let mut rate = || -> Result<f64, Box<dyn std::error::Error>> {
                    Ok(parts.next().ok_or("--burst needs ENTER,EXIT,GLITCH")?.parse()?)
                };
                let (enter, exit, glitch) = (rate()?, rate()?, rate()?);
                b.burst(enter, exit, glitch)
            }
            "--drift" => b.drift(it.next().ok_or("--drift needs a value")?.parse()?),
            "--stuck" => {
                let mask = it.next().ok_or("--stuck needs a hex mask")?;
                let digits = mask.strip_prefix("0x").unwrap_or(mask);
                b.stuck(u32::from_str_radix(digits, 16)?)
            }
            "--batch" => b.batch(fpga_sim::GANG_LANES),
            "--partial" => b.partial(true),
            "--encrypted" => b.encrypted(true),
            "--sca-traces" => b.sca_traces(it.next().ok_or("--sca-traces needs a value")?.parse()?),
            "--journal" if local => b.journal(it.next().ok_or("--journal needs a path")?),
            "--resume" if local => b.resume(true),
            "--trace" if local => b.trace(it.next().ok_or("--trace needs a path")?),
            "--journal" | "--resume" | "--trace" => {
                return Err(format!(
                    "'{arg}' is local-only; the server journals and traces every \
                     session inside its --root"
                )
                .into());
            }
            flag => return Err(format!("unknown attack option '{flag}'").into()),
        };
    }
    Ok(b.build()?)
}

fn run_attack(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = parse_spec(rest, true)?;
    print!("{}", cli::cmd_attack(&spec)?);
    Ok(())
}

fn run_serve(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:7545".to_string();
    let mut root = ".bitmod-fleet".to_string();
    let mut workers: Option<usize> = None;
    let mut idle_timeout: Option<u64> = None;
    let mut chaos_seed: u64 = 0;
    let (mut drop, mut partial, mut garble, mut delay, mut dup) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--root" => root = it.next().ok_or("--root needs a path")?.clone(),
            "--workers" => workers = Some(it.next().ok_or("--workers needs a value")?.parse()?),
            "--idle-timeout-ms" => {
                idle_timeout = Some(it.next().ok_or("--idle-timeout-ms needs a value")?.parse()?);
            }
            "--chaos-seed" => {
                chaos_seed = it.next().ok_or("--chaos-seed needs a value")?.parse()?;
            }
            "--chaos-drop" => drop = it.next().ok_or("--chaos-drop needs a value")?.parse()?,
            "--chaos-partial" => {
                partial = it.next().ok_or("--chaos-partial needs a value")?.parse()?;
            }
            "--chaos-garble" => {
                garble = it.next().ok_or("--chaos-garble needs a value")?.parse()?;
            }
            "--chaos-delay" => delay = it.next().ok_or("--chaos-delay needs a value")?.parse()?,
            "--chaos-dup" => dup = it.next().ok_or("--chaos-dup needs a value")?.parse()?,
            flag => return Err(format!("unknown serve option '{flag}'").into()),
        }
    }
    let mut config = FleetConfig::new(root);
    if let Some(n) = workers {
        config = config.workers(n);
    }
    let workers = config.worker_count();
    let fleet = Fleet::start(config)?;
    let mut server = FleetServer::bind(&Endpoint::parse(&addr), fleet)?;
    if let Some(ms) = idle_timeout {
        server = server.with_read_timeout(std::time::Duration::from_millis(ms));
    }
    let profile = bitmod::fleet::ChaosProfile::new(chaos_seed)
        .with_drop(drop)
        .with_partial(partial)
        .with_garble(garble)
        .with_delay(delay)
        .with_dup(dup);
    if profile.is_active() {
        server = server.with_chaos(profile);
        println!("chaos wire enabled (seed {chaos_seed})");
    }
    println!(
        "listening on {} ({} workers, root {})",
        server.endpoint(),
        workers,
        server.fleet().root().display()
    );
    server.run();
    Ok(())
}

/// Splits `--addr` and the client transport flags
/// (`--connect-timeout MS`, `--read-timeout MS`, `--retries N`) off a
/// client subcommand's arguments; everything else is returned for the
/// subcommand to parse.
fn split_addr(
    rest: &[String],
) -> Result<(Endpoint, ClientConfig, Vec<String>), Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:7545".to_string();
    let mut config = ClientConfig::default();
    let mut remainder = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--connect-timeout" => {
                let ms: u64 = it.next().ok_or("--connect-timeout needs milliseconds")?.parse()?;
                config = config.with_connect_timeout(std::time::Duration::from_millis(ms));
            }
            "--read-timeout" => {
                let ms: u64 = it.next().ok_or("--read-timeout needs milliseconds")?.parse()?;
                config = config.with_read_timeout(std::time::Duration::from_millis(ms));
            }
            "--retries" => {
                config = config.with_retries(it.next().ok_or("--retries needs a value")?.parse()?);
            }
            _ => remainder.push(arg.clone()),
        }
    }
    Ok((Endpoint::parse(&addr), config, remainder))
}

/// Renders the transport-health line under `bitmod status`: the
/// server's wire counters (connections, rejected frames, reconnects,
/// deduped submits, reaped leases, chaos faults, torn journals)
/// pulled out of the counters response.
fn transport_health(counters: &str) -> String {
    let field = |name: &str| wire::number_field(counters, name).unwrap_or(0);
    format!(
        "transport: {} connections, {} reconnects, {} frames rejected, \
         {} submits deduped, {} leases reaped, {} idle closed, \
         {} chaos faults, {} torn journals discarded",
        field("fleet.net.connections"),
        field("fleet.net.reconnects"),
        field("fleet.net.frames_rejected"),
        field("fleet.net.submit_deduped"),
        field("fleet.net.leases_reaped"),
        field("fleet.net.idle_closed"),
        field("fleet.net.chaos_faults"),
        field("journal.torn_discarded"),
    )
}

fn run_client(cmd: &str, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (endpoint, config, rest) = split_addr(rest)?;
    let mut client = FleetClient::connect_with(&endpoint, config)?;
    match cmd {
        "submit" => {
            let spec = parse_spec(&rest, false)?;
            println!("{}", client.submit(&spec)?);
        }
        "status" => match rest.first() {
            Some(id) => println!("{}", client.status(id)?),
            None => {
                // The fleet-wide view: every session, then board
                // health (quarantined boards show up as "dead" and
                // the observed-vs-injected fault gap), then the
                // wire's own health.
                println!("{}", client.list()?);
                println!("{}", client.health()?);
                println!("{}", transport_health(&client.counters()?));
            }
        },
        "tail" => {
            let id = rest.first().ok_or("tail needs a session id")?;
            let state = client.tail(id, &mut std::io::stdout())?;
            println!("session {id}: {state}");
        }
        "cancel" => {
            let id = rest.first().ok_or("cancel needs a session id")?;
            client.cancel(id)?;
            println!("cancelled {id}");
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server shutting down");
        }
        _ => unreachable!("run_client called for '{cmd}'"),
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "bitmod (findlut|table2|xorscan|packets|crc|diff|attack\
                 |serve|submit|status|tail|cancel|shutdown) <file> [...]";
    let (cmd, rest) = args.split_first().ok_or(usage)?;
    match cmd.as_str() {
        "attack" => return run_attack(rest),
        "serve" => return run_serve(rest),
        "submit" | "status" | "tail" | "cancel" | "shutdown" => return run_client(cmd, rest),
        _ => {}
    }
    let (file, rest) = rest.split_first().ok_or(usage)?;
    let bs = Bitstream::from_bytes(std::fs::read(file)?);

    let mut stride = cli::default_stride();
    let mut window: Option<(usize, usize)> = None;
    let mut json = false;
    let mut disable = false;
    let mut recompute = false;
    let mut out_path: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stride" => {
                stride = it.next().ok_or("--stride needs a value")?.parse()?;
            }
            "--window" => {
                let spec = it.next().ok_or("--window needs A..B")?;
                let (a, b) = spec.split_once("..").ok_or("--window needs A..B")?;
                window = Some((a.parse()?, b.parse()?));
            }
            "--json" => json = true,
            "--disable" => disable = true,
            "--recompute" => recompute = true,
            "-o" => out_path = Some(it.next().ok_or("-o needs a path")?.clone()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option '{flag}'; {usage}").into());
            }
            _ => positional.push(arg),
        }
    }

    match cmd.as_str() {
        "findlut" => {
            let f = positional.first().ok_or("findlut needs a function")?;
            print!("{}", cli::cmd_findlut(&bs, f, stride, json)?);
        }
        "table2" => print!("{}", cli::cmd_table2(&bs, stride, json)?),
        "xorscan" => print!("{}", cli::cmd_xorscan(&bs, stride, window)?),
        "packets" => print!("{}", cli::cmd_packets(&bs)),
        "diff" => {
            let other = positional.first().ok_or("diff needs a second file")?;
            let b = Bitstream::from_bytes(std::fs::read(other)?);
            print!("{}", cli::cmd_diff(&bs, &b));
        }
        "crc" => {
            if disable == recompute {
                return Err("crc needs exactly one of --disable / --recompute".into());
            }
            let (fixed, msg) = cli::cmd_crc(&bs, disable);
            println!("{msg}");
            let out = out_path.unwrap_or_else(|| format!("{file}.out"));
            std::fs::write(&out, fixed.as_bytes())?;
            println!("wrote {out}");
        }
        other => return Err(format!("unknown command '{other}'; {usage}").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bitmod: {e}");
            ExitCode::FAILURE
        }
    }
}
