//! The fixed-size IPC message.
//!
//! §2.2: "Each message contains 24 bytes which include: an opcode to
//! identify the request type; the channel on which to return the result;
//! and a double precision floating point value that serves as an argument
//! to the request." Fixed sizing is what lets the message ride *in* the
//! queue — its three words ([`Message::to_words`]) are the FIFO element
//! ([`usipc_queue::Elem`]), stored in the queue's own node or ring slot, so
//! a message costs one allocation; variable-sized payloads travel as an
//! arena offset in the third word.

use usipc_queue::Elem;

/// Well-known opcodes used by the built-in server runtime and examples.
pub mod opcode {
    /// Echo the argument back (the paper's benchmark request).
    pub const ECHO: u32 = 1;
    /// Final message of a client; the server replies and drops the session.
    pub const DISCONNECT: u32 = 2;
    /// Calculator example: add the argument to the server accumulator.
    pub const ADD: u32 = 3;
    /// Calculator example: multiply the accumulator by the argument.
    pub const MUL: u32 = 4;
    /// Calculator example: read the accumulator.
    pub const READ: u32 = 5;
    /// Recovery drop notice: a successor server's fsck determined that this
    /// client's in-flight request did *not* survive the crash (it was never
    /// committed to the receive queue). Sent on the reply queue in place of
    /// the real reply so a blocked client unblocks with a definite verdict
    /// instead of waiting forever; `value` echoes the incarnation that
    /// dropped it and `aux` carries the dropped-request count.
    pub const DROPPED: u32 = 6;
    /// First opcode free for applications.
    pub const USER_BASE: u32 = 64;
}

/// A request or reply: the paper's 24-byte fixed message, in host form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Request type.
    pub opcode: u32,
    /// Reply-queue index the result should be returned on.
    pub channel: u32,
    /// Double-precision argument / result.
    pub value: f64,
    /// Spare word (used by the asynchronous extension for sequencing, and
    /// available to applications for an arena offset to bulk data).
    pub aux: u64,
}

impl Message {
    /// An ECHO request for client `channel` carrying `value`.
    pub fn echo(channel: u32, value: f64) -> Self {
        Message {
            opcode: opcode::ECHO,
            channel,
            value,
            aux: 0,
        }
    }

    /// The disconnect request for client `channel`.
    pub fn disconnect(channel: u32) -> Self {
        Message {
            opcode: opcode::DISCONNECT,
            channel,
            value: 0.0,
            aux: 0,
        }
    }

    /// Packs into the queue element: the 24 bytes, as three words.
    pub fn to_words(self) -> Elem {
        [
            ((self.opcode as u64) << 32) | self.channel as u64,
            self.value.to_bits(),
            self.aux,
        ]
    }

    /// Unpacks a queue element. Total: every bit pattern is *a* message
    /// (an unknown opcode, an out-of-range `channel`, a NaN), so words a
    /// peer wrote into shared memory are decoded, never dereferenced —
    /// servers validate `channel` before use.
    pub fn from_words(w: Elem) -> Self {
        Message {
            opcode: (w[0] >> 32) as u32,
            channel: w[0] as u32,
            value: f64::from_bits(w[1]),
            aux: w[2],
        }
    }

    /// Packs into kernel-message form for the SysV baseline.
    pub fn to_kmsg(self) -> [u64; 4] {
        let [head, value, aux] = self.to_words();
        [head, value, aux, 0]
    }

    /// Unpacks from kernel-message form.
    pub fn from_kmsg(m: [u64; 4]) -> Self {
        Self::from_words([m[0], m[1], m[2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_is_24_bytes_like_the_paper() {
        assert_eq!(core::mem::size_of::<Elem>(), 24);
    }

    #[test]
    fn words_roundtrip() {
        let m = Message {
            opcode: opcode::ECHO,
            channel: 3,
            value: -2.5,
            aux: 77,
        };
        assert_eq!(Message::from_words(m.to_words()), m);
    }

    #[test]
    fn kmsg_roundtrip() {
        let m = Message {
            opcode: opcode::DISCONNECT,
            channel: 9,
            value: 1e300,
            aux: u64::MAX,
        };
        assert_eq!(Message::from_kmsg(m.to_kmsg()), m);
    }

    #[test]
    fn nan_value_survives() {
        let m = Message::from_words(Message::echo(0, f64::NAN).to_words());
        assert!(m.value.is_nan());
    }
}
