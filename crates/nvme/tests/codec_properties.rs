//! Property tests for the NVMe packet codec and queue rings.

use morpheus_nvme::{
    CompletionQueue, IoOpcode, MorpheusCommand, NvmeCommand, StatusCode, SubmissionQueue,
    MAX_IO_BLOCKS,
};
use proptest::prelude::*;

fn opcode_strategy() -> impl Strategy<Value = IoOpcode> {
    prop_oneof![
        Just(IoOpcode::Flush),
        Just(IoOpcode::Write),
        Just(IoOpcode::Read),
        Just(IoOpcode::DatasetMgmt),
        Just(IoOpcode::MInit),
        Just(IoOpcode::MWrite),
        Just(IoOpcode::MRead),
        Just(IoOpcode::MDeinit),
    ]
}

fn command_strategy() -> impl Strategy<Value = NvmeCommand> {
    (
        opcode_strategy(),
        any::<u8>(),
        any::<u16>(),
        any::<u32>(),
        any::<(u64, u64, u64)>(),
        any::<[u32; 6]>(),
    )
        .prop_map(
            |(opcode, flags, cid, nsid, (mptr, prp1, prp2), cdw)| NvmeCommand {
                opcode,
                flags,
                cid,
                nsid,
                mptr,
                prp1,
                prp2,
                cdw,
            },
        )
}

fn morpheus_strategy() -> impl Strategy<Value = MorpheusCommand> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(instance_id, code_ptr, code_len, arg)| MorpheusCommand::Init {
                instance_id,
                code_ptr,
                code_len,
                arg,
            }
        ),
        (any::<u32>(), any::<u64>(), 1..=MAX_IO_BLOCKS, any::<u64>()).prop_map(
            |(instance_id, slba, blocks, dma_addr)| MorpheusCommand::Read {
                instance_id,
                slba,
                blocks,
                dma_addr,
            }
        ),
        (any::<u32>(), any::<u64>(), 1..=MAX_IO_BLOCKS, any::<u64>()).prop_map(
            |(instance_id, slba, blocks, dma_addr)| MorpheusCommand::Write {
                instance_id,
                slba,
                blocks,
                dma_addr,
            }
        ),
        any::<u32>().prop_map(|instance_id| MorpheusCommand::Deinit { instance_id }),
    ]
}

/// An opcode byte: any value, or a valid opcode so that most 64-byte
/// packets decode.
fn opcode_byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), opcode_strategy().prop_map(|o| o as u8),]
}

proptest! {
    /// Malformed packets never panic the codec: `decode` rejects every
    /// length but 64 and unknown opcodes with `None`, and the typed
    /// Morpheus view of whatever decodes never panics either.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=128),
    ) {
        if let Some(cmd) = NvmeCommand::decode(&bytes) {
            prop_assert_eq!(bytes.len(), 64);
            let _ = MorpheusCommand::parse(&cmd);
        }
    }

    #[test]
    fn decode_never_panics_on_64_byte_packets(
        mut bytes in proptest::collection::vec(any::<u8>(), 64),
        opcode in opcode_byte_strategy(),
    ) {
        bytes[0] = opcode;
        match NvmeCommand::decode(&bytes) {
            Some(cmd) => {
                prop_assert_eq!(cmd.opcode as u8, opcode);
                let parsed = MorpheusCommand::parse(&cmd);
                prop_assert_eq!(parsed.is_some(), cmd.opcode.is_morpheus());
            }
            None => prop_assert!(IoOpcode::from_u8(opcode).is_none()),
        }
    }

    #[test]
    fn packet_codec_round_trips(cmd in command_strategy()) {
        let bytes = cmd.encode();
        prop_assert_eq!(NvmeCommand::decode(&bytes), Some(cmd));
    }

    #[test]
    fn morpheus_view_round_trips(m in morpheus_strategy(), cid in any::<u16>()) {
        let wire = m.into_command(cid, 1);
        prop_assert_eq!(wire.cid, cid);
        let bytes = wire.encode();
        let decoded = NvmeCommand::decode(&bytes).unwrap();
        prop_assert_eq!(MorpheusCommand::parse(&decoded), Some(m));
    }

    /// Every submitted command eventually produces exactly one completion
    /// with a matching cid, in order, regardless of interleaving.
    #[test]
    fn one_completion_per_submission(
        schedule in proptest::collection::vec(0u8..3, 1..400),
        depth in 1usize..16,
    ) {
        let mut sq = SubmissionQueue::new(depth);
        let mut cq = CompletionQueue::new(depth);
        let mut submitted: u16 = 0;
        let mut completed: u16 = 0;
        let mut reaped: u16 = 0;
        for step in schedule {
            match step {
                0 => {
                    if sq.submit(NvmeCommand::new(IoOpcode::Flush, submitted, 1)).is_ok() {
                        submitted += 1;
                    }
                }
                1 => {
                    if cq.outstanding() < depth {
                        if let Some(c) = sq.pop() {
                            prop_assert_eq!(c.cid, completed);
                            cq.post(c.cid, StatusCode::Success, 0).unwrap();
                            completed += 1;
                        }
                    }
                }
                _ => {
                    if let Some(e) = cq.reap() {
                        prop_assert_eq!(e.cid, reaped);
                        reaped += 1;
                    }
                }
            }
        }
        // Drain everything still in flight.
        while let Some(c) = sq.pop() {
            while cq.outstanding() == depth {
                let e = cq.reap().unwrap();
                prop_assert_eq!(e.cid, reaped);
                reaped += 1;
            }
            cq.post(c.cid, StatusCode::Success, 0).unwrap();
            completed += 1;
        }
        while let Some(e) = cq.reap() {
            prop_assert_eq!(e.cid, reaped);
            reaped += 1;
        }
        prop_assert_eq!(submitted, completed);
        prop_assert_eq!(completed, reaped);
    }
}
