//! Property tests for the checkpoint record formats: arbitrary field
//! sequences survive writer→reader, arbitrary payloads survive
//! seal→open, and arbitrary journals survive append→read — including
//! after losing an arbitrary torn tail.

use proptest::prelude::*;
use rvv_ckpt::{
    fnv1a, fs_backend, open, parse_journal, seal, ByteReader, ByteWriter, JournalWriter,
};
use std::fs;
use std::path::PathBuf;

/// One codec field: writer op + the value the reader must give back.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    Bool(bool),
    Bytes(Vec<u8>),
    Str(String),
}

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u16>().prop_map(Field::U16),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        any::<bool>().prop_map(Field::Bool),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Field::Bytes),
        proptest::collection::vec(any::<char>(), 0..12)
            .prop_map(|cs| Field::Str(cs.into_iter().collect())),
    ]
}

fn tmpdir(tag: &str, salt: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rvv-ckpt-props-{tag}-{}-{salt:x}",
        std::process::id()
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

proptest! {
    #[test]
    fn arbitrary_field_sequences_round_trip(
        fields in proptest::collection::vec(field(), 0..24)
    ) {
        let mut w = ByteWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => w.put_u8(*v),
                Field::U16(v) => w.put_u16(*v),
                Field::U32(v) => w.put_u32(*v),
                Field::U64(v) => w.put_u64(*v),
                Field::Bool(v) => w.put_bool(*v),
                Field::Bytes(v) => w.put_bytes(v),
                Field::Str(v) => w.put_str(v),
            }
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for f in &fields {
            let got = match f {
                Field::U8(_) => Field::U8(r.get_u8().unwrap()),
                Field::U16(_) => Field::U16(r.get_u16().unwrap()),
                Field::U32(_) => Field::U32(r.get_u32().unwrap()),
                Field::U64(_) => Field::U64(r.get_u64().unwrap()),
                Field::Bool(_) => Field::Bool(r.get_bool().unwrap()),
                Field::Bytes(_) => Field::Bytes(r.get_bytes().unwrap().to_vec()),
                Field::Str(_) => Field::Str(r.get_str().unwrap()),
            };
            prop_assert_eq!(&got, f);
        }
        prop_assert!(r.finish().is_ok());
    }

    #[test]
    fn arbitrary_payloads_survive_seal_open(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        version in any::<u16>(),
    ) {
        let sealed = seal("prop-kind", version, &payload);
        prop_assert_eq!(open("prop-kind", version, &sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn truncated_frames_never_open(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..64,
    ) {
        let sealed = seal("prop-kind", 1, &payload);
        let cut = cut.min(sealed.len().saturating_sub(1));
        prop_assert!(open("prop-kind", 1, &sealed[..cut]).is_err());
    }

    #[test]
    fn journals_survive_append_read_and_arbitrary_tears(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 1..12),
        header in proptest::collection::vec(any::<u8>(), 0..16),
        tear in 0usize..64,
        salt in any::<u64>(),
    ) {
        let dir = tmpdir("journal", salt);
        let path = dir.join("p.journal");
        {
            let mut w = JournalWriter::create_on(&fs_backend(), &path, &header, 0).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        }
        let bytes = fs_backend().read(&path).unwrap();
        let j = parse_journal(&bytes, "p.journal").unwrap();
        prop_assert_eq!(j.header, &header[..]);
        prop_assert_eq!(&j.records, &records);

        // Tear off 1..=tear bytes: the survivors are exactly a prefix.
        let full = fs::read(&path).unwrap();
        let keep = full.len().saturating_sub(1 + tear % full.len());
        fs::write(&path, &full[..keep]).unwrap();
        // Tearing into the header record itself is a hard error; any
        // survivor must be an exact record prefix.
        let bytes = fs_backend().read(&path).unwrap();
        if let Ok(torn) = parse_journal(&bytes, "p.journal") {
            prop_assert_eq!(torn.header, &header[..]);
            prop_assert!(torn.records.len() <= records.len());
            prop_assert_eq!(&torn.records[..], &records[..torn.records.len()]);
            prop_assert!(torn.valid_len <= keep as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_is_stable_against_the_reference_constants(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        prop_assert_eq!(fnv1a(&bytes), h);
    }
}
