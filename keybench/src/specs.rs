//! The workloads and the session specs they submit, derived from the
//! run seed alone: the same seed gives the same specs.

use bitmod::fleet::SessionSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every fast path on (64-wide batches × partial × encrypted),
    /// clean board, one session at a time.
    Headline,
    /// `bitmod attack --noisy` defaults: serial, plaintext, full
    /// loads, a fresh fault seed per session.
    Noisy,
    /// An in-process fleet server fed bursts of mostly headline specs
    /// plus a few noisy batched specs over a Unix socket.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Headline, Workload::Noisy, Workload::Fleet];

    /// Parses a `--workload` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::Noisy => "noisy",
            Workload::Fleet => "fleet",
        }
    }
}

/// Sessions per fleet burst.
pub const BURST: usize = 16;

/// Noisy batched sessions among each burst's [`BURST`].
pub const NOISY_PER_BURST: usize = 2;

/// SplitMix64 over the run seed and a (stream, index) pair: a stable,
/// well-spread seed for one derived input.
#[must_use]
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The headline spec. A clean board draws no faults, so the seed has
/// no effect on the session; it is still the run's, for the record.
#[must_use]
pub fn headline(seed: u64) -> SessionSpec {
    SessionSpec::builder()
        .seed(derive(seed, 0, 0))
        .batch(fpga_sim::GANG_LANES)
        .partial(true)
        .encrypted(true)
        .build()
        .expect("headline spec validates")
}

/// The `index`-th noisy session of a run: library noise defaults
/// (1% glitch, 10% load-fail, 5 votes, fixed policy), serial,
/// plaintext, full loads.
#[must_use]
pub fn noisy(seed: u64, index: u64) -> SessionSpec {
    SessionSpec::builder()
        .noisy(true)
        .seed(derive(seed, 1, index))
        .build()
        .expect("noisy spec validates")
}

/// A noisy session for the fleet, run through the 64-wide batched
/// pipeline: the library's 10% transient load failures and 5 votes,
/// but no keystream glitches. Glitches make the fixed policy fail
/// about one seed in four (see [`noisy`], which keeps them), and the
/// fleet workload must be one on which no session fails; load failures
/// alone keep retries and backoff live and fail only on eight straight
/// failed loads of one query (~1e-8).
#[must_use]
pub fn noisy_batched(seed: u64, index: u64) -> SessionSpec {
    SessionSpec::builder()
        .noisy(true)
        .glitch(0.0)
        .seed(derive(seed, 2, index))
        .batch(fpga_sim::GANG_LANES)
        .build()
        .expect("noisy batched spec validates")
}

/// The cheap clean session that warms a fleet worker's board pool.
#[must_use]
pub fn warm_up() -> SessionSpec {
    SessionSpec::builder().batch(fpga_sim::GANG_LANES).build().expect("warm-up spec validates")
}

/// Burst `burst` of a fleet run: [`BURST`] specs, [`NOISY_PER_BURST`]
/// of them noisy batched at seed-chosen positions in the second half
/// of the burst, the rest headline. The first wave every worker picks
/// up is therefore headline sessions.
#[must_use]
pub fn fleet_burst(seed: u64, burst: u64) -> Vec<SessionSpec> {
    let mut noisy_at = Vec::with_capacity(NOISY_PER_BURST);
    let mut draw = 0;
    while noisy_at.len() < NOISY_PER_BURST {
        let half = (BURST / 2) as u64;
        let at = (half + derive(seed, 3, burst * 64 + draw) % half) as usize;
        draw += 1;
        if !noisy_at.contains(&at) {
            noisy_at.push(at);
        }
    }
    (0..BURST)
        .map(|i| {
            if noisy_at.contains(&i) {
                noisy_batched(seed, burst * BURST as u64 + i as u64)
            } else {
                headline(seed)
            }
        })
        .collect()
}
