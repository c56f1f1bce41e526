//! A victim board whose configuration port only accepts sealed
//! containers — the Starbleed setting (Ender et al.): the attacker
//! never hands the device a plaintext bitstream, only a Fig. 1
//! AES-256-CBC container, and the device decrypts, checks the
//! embedded `K_A` and the HMAC, and then programs the fabric.
//!
//! This is the ground-truth device model for the encrypted attack
//! path: the patch oracle in `bitstream::secure::patch` must produce
//! containers this board accepts, and its seekable verifier must
//! reject exactly what this board rejects. Tests pin both directions.

use core::fmt;

use bitstream::{OpenSecureError, SecureBitstream};

use crate::board::{BoardError, Load, Snow3gBoard};

/// An error from a sealed-container load.
#[derive(Debug)]
#[non_exhaustive]
pub enum SealedLoadError {
    /// The container failed decryption, structural validation, or the
    /// HMAC check — reported before the fabric sees a single frame
    /// (the device's `BOOTSTS` path).
    Container(OpenSecureError),
    /// The container opened but the decrypted bitstream was refused
    /// by the configuration engine (bad CRC, wrong size).
    Board(BoardError),
}

impl fmt::Display for SealedLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealedLoadError::Container(e) => write!(f, "container rejected: {e}"),
            SealedLoadError::Board(e) => write!(f, "decrypted bitstream refused: {e}"),
        }
    }
}

impl std::error::Error for SealedLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SealedLoadError::Container(e) => Some(e),
            SealedLoadError::Board(e) => Some(e),
        }
    }
}

/// A SNOW 3G board with bitstream encryption enabled: the on-chip
/// decryptor holds `K_E` (in eFUSE/BBRAM) and the configuration port
/// refuses anything but a valid sealed container.
pub struct SealedBoard {
    inner: Snow3gBoard,
    k_enc: [u8; 32],
}

impl fmt::Debug for SealedBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the device key.
        write!(f, "SealedBoard({:?})", self.inner)
    }
}

impl SealedBoard {
    /// Wraps `board` with an on-chip decryption key.
    #[must_use]
    pub fn new(board: Snow3gBoard, k_enc: [u8; 32]) -> Self {
        Self { inner: board, k_enc }
    }

    /// The underlying plaintext board (ground truth, tests only).
    #[must_use]
    pub fn board(&self) -> &Snow3gBoard {
        &self.inner
    }

    /// The sealed golden container as the attacker extracts it from
    /// external flash: ciphertext only — this is all the encrypted
    /// attack path is allowed to start from.
    #[must_use]
    pub fn extract_sealed(&self, k_auth: &[u8; 32], iv: [u8; 16]) -> SecureBitstream {
        SecureBitstream::seal(&self.inner.extract_bitstream(), &self.k_enc, k_auth, iv)
    }

    /// Full device-accurate load: decrypt the whole container, verify
    /// structure + `K_A` + HMAC, then program the fabric and collect
    /// `words` keystream words.
    ///
    /// # Errors
    ///
    /// [`SealedLoadError::Container`] if the container fails any
    /// check; [`SealedLoadError::Board`] if the decrypted bitstream
    /// is refused by the configuration engine.
    pub fn load_sealed(
        &self,
        sealed: &SecureBitstream,
        words: usize,
    ) -> Result<Vec<u32>, SealedLoadError> {
        let opened = sealed.open(&self.k_enc).map_err(SealedLoadError::Container)?;
        let mut lanes = self.inner.load(&[Load::Full(&opened.bitstream)], words);
        lanes.pop().expect("one lane").map_err(SealedLoadError::Board)
    }
}
