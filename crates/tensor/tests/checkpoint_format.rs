//! The checkpoint format of a tensor: `{"rows", "cols", "data": <base64 of
//! the little-endian f32 bytes>}`. Every bit pattern survives a save and a
//! load, and a malformed payload — the parser's input is untrusted — is a
//! typed error, never a panic or an allocation sized by the input.

use infuserki_nn::layers::Module;
use infuserki_nn::{ModelConfig, TransformerLm};
use infuserki_tensor::{Matrix, TensorError};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// Bit patterns a float printer is most likely to get wrong.
const SPECIAL: [u32; 10] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // the quiet NaN
    0x7f80_0001, // a signalling NaN payload
    0xffff_ffff, // a negative NaN with every payload bit set
    0x0000_0001, // the smallest subnormal
    0x807f_ffff, // the largest subnormal, negated
    0x7f7f_ffff, // f32::MAX
];

fn round_trip(m: &Matrix) -> Matrix {
    serde_json::from_str(&serde_json::to_string(m).unwrap()).unwrap()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_bit_pattern_round_trips(
        random in proptest::collection::vec(0u32..=u32::MAX, 0..40),
        cols in 1usize..5,
    ) {
        let mut all: Vec<u32> = SPECIAL.to_vec();
        all.extend(random);
        let rows = all.len().div_ceil(cols);
        all.resize(rows * cols, 0);
        let m = Matrix::from_vec(rows, cols, all.iter().map(|&b| f32::from_bits(b)).collect());
        let back = round_trip(&m);
        prop_assert_eq!(back.shape(), m.shape());
        prop_assert_eq!(bits(&back), all);
    }
}

#[test]
fn an_empty_tensor_round_trips() {
    for (rows, cols) in [(0, 0), (0, 7), (3, 0)] {
        assert_eq!(round_trip(&Matrix::zeros(rows, cols)).shape(), (rows, cols));
    }
}

#[test]
fn a_checkpoint_with_non_finite_weights_saves_and_loads() {
    let mut model = TransformerLm::new(ModelConfig::tiny(16), &mut ChaCha8Rng::seed_from_u64(1));
    let mut first = true;
    model.visit_mut(&mut |p| {
        if std::mem::take(&mut first) {
            let w = p.data_mut().data_mut();
            w[0] = f32::NAN;
            w[1] = f32::INFINITY;
            w[2] = f32::NEG_INFINITY;
            w[3] = -0.0;
        }
    });
    let dir = std::env::temp_dir().join(format!("infuserki_nonfinite_{}", std::process::id()));
    let path = dir.join("model.json");
    model.save(&path).unwrap();
    let loaded = TransformerLm::load(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = loaded.expect("a checkpoint that saves must load");
    let all_bits = |m: &TransformerLm| {
        let mut v = Vec::new();
        m.visit(&mut |p| v.extend(bits(p.data())));
        v
    };
    assert_eq!(all_bits(&loaded), all_bits(&model));
}

/// A tensor document with the given fields.
fn tensor(rows: f64, cols: f64, data: Value) -> Value {
    Value::Object(vec![
        ("rows".into(), Value::Num(rows)),
        ("cols".into(), Value::Num(cols)),
        ("data".into(), data),
    ])
}

fn decode(v: &Value) -> String {
    let DeError(msg) = Matrix::from_value(v).expect_err("a malformed tensor must not decode");
    msg
}

#[test]
fn a_payload_of_the_wrong_length_is_refused() {
    let good = Matrix::from_vec(2, 3, vec![1.0; 6]).to_value();
    let text = good
        .get_field("data")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let short = tensor(2.0, 3.0, Value::Str(text[..text.len() - 4].into()));
    assert!(decode(&short).contains("characters"), "{}", decode(&short));
    let long = tensor(2.0, 3.0, Value::Str(format!("{text}AAAA")));
    assert!(decode(&long).contains("characters"), "{}", decode(&long));
    let wrong_shape = tensor(3.0, 3.0, Value::Str(text));
    assert!(
        decode(&wrong_shape).contains("3x3"),
        "{}",
        decode(&wrong_shape)
    );
}

#[test]
fn a_shape_that_overflows_or_is_huge_is_refused_before_allocating() {
    let huge = 2f64.powi(40);
    let overflow = tensor(huge, huge, Value::Str("AAAA".into()));
    assert!(
        decode(&overflow).contains("overflows"),
        "{}",
        decode(&overflow)
    );
    // 2^40 elements would be 4 TiB: refused by the text's length, not by
    // trying to allocate it.
    let unallocatable = tensor(2f64.powi(20), 2f64.powi(20), Value::Str("AAAA".into()));
    assert!(
        decode(&unallocatable).contains("characters"),
        "{}",
        decode(&unallocatable)
    );
}

#[test]
fn a_byte_outside_the_alphabet_is_refused() {
    // Two f32s are 8 bytes: twelve characters, the last one padding.
    assert!(Matrix::from_value(&tensor(1.0, 2.0, Value::Str("AAAAAAAAAAA=".into()))).is_ok());
    for (bad, byte) in [
        ("AAA*AAAAAAA=", "0x2a"),
        ("AAAAAAAAA\u{e9}=", "0xc3"),
        ("AA AAAAAAAA=", "0x20"),
        ("AAAAAAAA\nAA=", "0x0a"),
    ] {
        let msg = decode(&tensor(1.0, 2.0, Value::Str(bad.into())));
        assert!(msg.contains(&format!("byte {byte}")), "{bad:?}: {msg}");
        assert!(msg.contains("not base64"), "{bad:?}: {msg}");
    }
}

#[test]
fn bad_padding_is_refused() {
    // One f32 is 4 bytes: two full characters of padding at the end.
    let ok = Matrix::from_vec(1, 1, vec![1.0]).to_value();
    assert_eq!(ok.get_field("data").unwrap().as_str(), Some("AACAPw=="));
    for bad in ["AACAPwA=", "AACAP===", "AAC=Pw==", "AACAPx=="] {
        let msg = decode(&tensor(1.0, 1.0, Value::Str(bad.into())));
        assert!(msg.contains("padding"), "{bad}: {msg}");
    }
}

#[test]
fn data_that_is_not_a_string_is_refused() {
    let msg = decode(&tensor(1.0, 1.0, Value::Num(1.0)));
    assert!(
        msg.contains("expected base64 tensor data, found number"),
        "{msg}"
    );
    assert!(decode(&Value::Array(vec![])).contains("expected tensor object"));
    let missing = Value::Object(vec![("rows".into(), Value::Num(1.0))]);
    assert!(decode(&missing).contains("missing field `cols`"));
}

#[test]
fn a_number_array_is_named_as_a_pre_format_3_tensor() {
    let old = tensor(
        1.0,
        2.0,
        Value::Array(vec![Value::Num(0.5), Value::Num(-1.0)]),
    );
    assert_eq!(
        decode(&old),
        "tensor data is a number array: a pre-format-3 tensor; re-save it with this build"
    );
    // Through a checkpoint load, the same words in a typed corrupt error.
    let dir = std::env::temp_dir().join(format!("infuserki_oldckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.json");
    let model = TransformerLm::new(ModelConfig::tiny(16), &mut ChaCha8Rng::seed_from_u64(1));
    let text = serde_json::to_string(&model).unwrap();
    // The first tensor's payload as numbers: the array is refused before its
    // length is looked at.
    let start = text.find(r#""data":""#).unwrap() + r#""data":"#.len();
    let end = start + 1 + text[start + 1..].find('"').unwrap();
    std::fs::write(
        &path,
        format!("{}[0.5,-1]{}", &text[..start], &text[end + 1..]),
    )
    .unwrap();
    let err = TransformerLm::load(&path).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        TensorError::Corrupt(msg) => {
            assert!(
                msg.contains("pre-format-3 tensor; re-save it with this build"),
                "{msg}"
            )
        }
        other => panic!("want a corrupt-checkpoint error, got {other:?}"),
    }
}

/// A negative count in a checkpoint's config is refused as a typed error
/// naming the value and the type, not read as a zero-size model.
#[test]
fn a_negative_dimension_in_a_checkpoint_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("infuserki_negdim_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("negative.json");
    let model = TransformerLm::new(ModelConfig::tiny(16), &mut ChaCha8Rng::seed_from_u64(1));
    let text = serde_json::to_string(&model).unwrap();
    let field = format!(r#""d_model":{}"#, model.config().d_model);
    assert!(text.contains(&field), "{field} not in the checkpoint");
    std::fs::write(&path, text.replacen(&field, r#""d_model":-1"#, 1)).unwrap();
    let err = TransformerLm::load(&path).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        TensorError::Corrupt(msg) => {
            assert!(msg.contains("-1 is out of range for usize"), "{msg}")
        }
        other => panic!("want a corrupt-checkpoint error, got {other:?}"),
    }
}
