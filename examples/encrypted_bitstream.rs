//! The full Fig.-1 pipeline: attacking an *encrypted and
//! authenticated* bitstream.
//!
//! Xilinx 7-series security is MAC-then-encrypt with the
//! authentication key K_A stored inside the encrypted stream. The
//! paper's attack model assumes the encryption key K_E leaks through
//! a side-channel attack ([16]–[18]); after that, authentication
//! provides no protection because K_A is right there in the
//! plaintext. This example executes the whole chain:
//!
//! extract → SCA → seekable open → read K_A → modify (full α fault) →
//! incremental re-MAC → dirty-window re-encrypt → load → key.
//!
//! Each of the ~545 candidate loads goes through the
//! position-seekable [`PatchOracle`]: only the CBC blocks the LUT
//! edit touches are re-encrypted and only the HMAC suffix past the
//! nearest midstate checkpoint is re-absorbed — the container tax is
//! a small constant factor, not O(container) per load
//! (`bench-gate encrypted` gates it at ≤1.5× in CI).
//!
//! ```text
//! cargo run --release --example encrypted_bitstream
//! ```

use bitmod::{Attack, EncryptedOracle};
use bitstream::{PatchOracle, ScaOracle};
use fpga_sim::{ImplementOptions, SealedBoard, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::{Iv, Key};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The vendor provisions the board: bitstream sealed under an
    // on-chip AES key K_E and an HMAC key K_A, ciphertext in flash.
    let key = Key([0x0F1E2D3C, 0x4B5A6978, 0x8796A5B4, 0xC3D2E1F0]);
    let iv = Iv([0x11111111, 0x22222222, 0x33333333, 0x44444444]);
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(key, iv),
        &ImplementOptions::default(),
    )?;
    let k_enc: [u8; 32] = *b"on-chip AES-256 bitstream key!!!";
    let k_auth: [u8; 32] = *b"vendor's HMAC-SHA-256 key (K_A)!";
    let board = SealedBoard::new(board, k_enc);
    let sealed = board.extract_sealed(&k_auth, [0xA5; 16]);
    println!("flash contents: {} ciphertext bytes", sealed.ciphertext.len());

    // Step 1: the attacker measures power traces of the decryption
    // engine and recovers K_E (Moradi et al.-style SCA, modelled as
    // an oracle that needs enough traces).
    let sca = ScaOracle::new(k_enc, 40_000);
    assert!(sca.extract_key(10_000).is_none(), "too few traces");
    let recovered_ke = sca.extract_key(40_000).expect("enough traces");
    println!("side channel: K_E recovered after 40k traces");

    // Step 2: one full decrypt builds the seekable patch oracle. K_A
    // falls out of the plaintext (Fig. 1) — no guessing required —
    // and the golden bitstream the attack needs comes *out of the
    // container*.
    let patcher = PatchOracle::new(&sealed, &recovered_ke)?;
    println!(
        "container opened; K_A recovered from the stream: {}…",
        patcher.k_auth().iter().take(8).map(|b| format!("{b:02x}")).collect::<String>()
    );
    assert_eq!(patcher.k_auth(), k_auth);
    let golden = patcher.golden().clone();

    // Step 3: run the bitstream-modification attack over ciphertext.
    // Every candidate the attack loads is patch-sealed (dirty-window
    // re-encrypt + incremental re-MAC) and then decrypted + verified
    // by the device model, exactly as a real adversary would
    // re-provision the flash between loads.
    let oracle = EncryptedOracle::new(board.board(), patcher);
    let report = Attack::new(&oracle, golden)?.run()?;
    println!("\nrecovered SNOW 3G key: {}", report.recovered.key);
    assert_eq!(report.recovered.key, key);

    let stats = oracle.patch_stats();
    println!("device loads (each one re-MACed and re-encrypted): {}", report.oracle_loads);
    println!(
        "seekable container work: {} blocks re-encrypted, {} reused from the clean prefix \
         ({}% of the AES work skipped)",
        stats.blocks_reencrypted,
        stats.blocks_reused,
        100 * stats.blocks_reused / (stats.blocks_reencrypted + stats.blocks_reused).max(1),
    );
    println!("\nencryption + authentication did not stop the attack: K_A travels with the data.");
    Ok(())
}
