//! Configuration frames.
//!
//! In 7-series devices the smallest addressable unit of configuration
//! memory is a *frame* of 101 32-bit words (Section V-A of the
//! paper). The `FDRI` payload is a sequence of whole frames.

/// Words per frame.
pub const FRAME_WORDS: usize = 101;

/// Bytes per frame.
pub const FRAME_BYTES: usize = FRAME_WORDS * 4;

/// A flat view over the FDRI payload as frames.
///
/// # Example
///
/// ```
/// use bitstream::FrameData;
///
/// let mut frames = FrameData::new(4);
/// frames.as_mut_bytes()[5] = 0xAB;
/// assert_eq!(frames.frame(0)[5], 0xAB);
/// assert_eq!(frames.frame_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameData {
    bytes: Vec<u8>,
}

impl FrameData {
    /// Allocates `frames` zeroed frames.
    #[must_use]
    pub fn new(frames: usize) -> Self {
        Self { bytes: vec![0u8; frames * FRAME_BYTES] }
    }

    /// Wraps an existing payload.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of the frame size.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert_eq!(bytes.len() % FRAME_BYTES, 0, "payload must be whole frames");
        Self { bytes }
    }

    /// Number of frames.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.bytes.len() / FRAME_BYTES
    }

    /// The whole payload.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the whole payload.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Consumes the view, returning the payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Frame `i` as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[i * FRAME_BYTES..(i + 1) * FRAME_BYTES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "whole frames")]
    fn ragged_payload_rejected() {
        let _ = FrameData::from_bytes(vec![0u8; FRAME_BYTES + 1]);
    }

    #[test]
    fn frame_indexing() {
        let mut f = FrameData::new(3);
        f.as_mut_bytes()[2 * FRAME_BYTES] = 0x55;
        assert_eq!(f.as_bytes()[2 * FRAME_BYTES], 0x55);
        assert_eq!(f.frame(1), &[0u8; FRAME_BYTES][..]);
    }
}
