//! Seeded mutations of a valid JSON spec, shared by the hostile DUT-spec
//! (`symbist-dut`) and job-spec (`symbist-service`) corpora.
//!
//! A mutant applies one to three edits anywhere in the document: a dropped,
//! duplicated, retyped or unknown field; a known field set to an extreme,
//! overflowing or non-JSON number; a value nested close to the parser's
//! 32-level cap; or a value that brings the body close to the service's
//! 64 KiB cap.

use symbist_circuit::rng::Rng;
use symbist_dut::Json;

/// Replacement values of every JSON type.
const VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "\"\"",
    "\"x\"",
    "[]",
    "{}",
    "[1,2]",
    "{\"a\":1}",
    "0",
    "2",
    "-1",
    "0.5",
    "\"40\"",
];

/// Extreme, overflowing and non-JSON numbers.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-1",
    "1",
    "2",
    "64",
    "65",
    "10000",
    "10001",
    "100000",
    "1e12",
    "1000000000000",
    "4294967296",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "1e300",
    "-1e300",
    "1e999",
    "-1e999",
    "4.9e-324",
    "1e-320",
    "2.5",
    "NaN",
    "Infinity",
    "-Infinity",
    "0x10",
    "1e",
];

/// A JSON document as a tree whose objects may repeat a key, which a
/// parsed [`Json`] cannot.
#[derive(Debug, Clone)]
enum Node {
    Raw(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

impl Node {
    fn from_json(json: &Json) -> Node {
        match json {
            Json::Arr(items) => Node::Arr(items.iter().map(Node::from_json).collect()),
            Json::Obj(map) => Node::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Node::from_json(v)))
                    .collect(),
            ),
            scalar => Node::Raw(scalar.to_string()),
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Node::Raw(text) => out.push_str(text),
            Node::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Node::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&Json::str(key.clone()).to_string());
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }

    fn objects(&self) -> usize {
        match self {
            Node::Raw(_) => 0,
            Node::Arr(items) => items.iter().map(Node::objects).sum(),
            Node::Obj(fields) => 1 + fields.iter().map(|(_, v)| v.objects()).sum::<usize>(),
        }
    }

    /// The `n`-th object in document order (counting down `n`).
    fn nth_object(&mut self, n: &mut usize) -> Option<&mut Vec<(String, Node)>> {
        match self {
            Node::Raw(_) => None,
            Node::Arr(items) => items.iter_mut().find_map(|item| item.nth_object(n)),
            Node::Obj(fields) => {
                if *n == 0 {
                    return Some(fields);
                }
                *n -= 1;
                fields.iter_mut().find_map(|(_, v)| v.nth_object(n))
            }
        }
    }
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// A value nested `depth` levels deep in arrays and objects.
fn nested(rng: &mut Rng, depth: usize) -> String {
    let mut text = pick(rng, NUMBERS).to_string();
    for _ in 0..depth {
        text = if rng.bernoulli(0.5) {
            format!("[{text}]")
        } else {
            format!("{{\"k\":{text}}}")
        };
    }
    text
}

/// A string or an array of numbers of about 60–66 KB.
fn bulky(rng: &mut Rng) -> String {
    let len = 60_000 + rng.below(6_000) as usize;
    if rng.bernoulli(0.5) {
        let unit = pick(
            rng,
            &["a", "é", "\\n", "\\\"", "\\u0000", "R1 a 0 1k\\n", "😀"],
        );
        format!("\"{}\"", unit.repeat(len / unit.len()))
    } else {
        format!("[{}]", vec!["1e308"; len / 6].join(","))
    }
}

/// Applies one random edit to one random object of `doc`.
fn mutate(rng: &mut Rng, doc: &mut Node, keys: &[&str]) {
    let mut n = rng.below(doc.objects() as u64) as usize;
    let Some(fields) = doc.nth_object(&mut n) else {
        return;
    };
    let at = (!fields.is_empty()).then(|| rng.below(fields.len() as u64) as usize);
    match (rng.below(8), at) {
        (0, Some(at)) => {
            fields.remove(at);
        }
        (1, Some(at)) => {
            let (key, value) = fields[at].clone();
            let value = if rng.bernoulli(0.5) {
                value
            } else {
                Node::Raw(pick(rng, VALUES).to_string())
            };
            fields.insert(rng.below(fields.len() as u64 + 1) as usize, (key, value));
        }
        (2, Some(at)) => fields[at].1 = Node::Raw(pick(rng, VALUES).to_string()),
        (3, Some(at)) => fields[at].1 = Node::Raw(pick(rng, NUMBERS).to_string()),
        (4, _) => {
            let values = if rng.bernoulli(0.7) { NUMBERS } else { VALUES };
            let value = pick(rng, values);
            fields.push((pick(rng, keys).to_string(), Node::Raw(value.to_string())));
        }
        (5, Some(at)) => {
            let depth = 26 + rng.below(12) as usize;
            fields[at].1 = Node::Raw(nested(rng, depth));
        }
        (6, Some(at)) => fields[at].1 = Node::Raw(bulky(rng)),
        _ => fields.push((
            pick(
                rng,
                &["smaple_size", "thread", "Samples", "", "\u{0}", "k "],
            )
            .to_string(),
            Node::Raw(pick(rng, VALUES).to_string()),
        )),
    }
}

/// A mutant of `valid` from seed `seed`: one to three edits, each in a
/// random object, using `keys` as the known field names to set.
pub fn mutant(seed: u64, valid: &Json, keys: &[&str]) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let mut doc = Node::from_json(valid);
    for _ in 0..=rng.below(3) {
        mutate(&mut rng, &mut doc, keys);
    }
    let mut out = String::new();
    doc.render(&mut out);
    out
}
