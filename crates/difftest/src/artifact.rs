//! Self-contained, replayable failure artifacts.
//!
//! An artifact captures everything about one failing trial in a single JSON
//! document: the (shrunk) structured program, the trial seed, what the
//! shrinker did, and every failure with its divergence report and
//! flight-recorder transcript. The pipeline configuration and the assembled
//! listing are embedded too — those are for the human reading the file; the
//! machine-readable replay needs only the trial seed (a [`TrialSpec`] is a
//! pure function of it) and the statement tree.

use crate::shrink::ShrinkStats;
use crate::spec::TrialSpec;
use crate::trial::{check_program, Failure, FailureKind};
use ci_isa::Reg;
use ci_obs::json::{self, JsonValue};
use ci_workloads::{CondKind, SimpleOp, Stmt, StructuredProgram};

/// Format version stamped into every artifact.
const VERSION: i64 = 1;

/// A replayable record of one failing fuzz trial.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Seed the trial's [`TrialSpec`] derives from.
    pub trial_seed: u64,
    /// The failing program, after shrinking.
    pub program: StructuredProgram,
    /// What the shrinker did to get here.
    pub shrink: ShrinkStats,
    /// The failures observed on `program` (re-derivable via [`replay`]).
    pub failures: Vec<Failure>,
}

impl Artifact {
    /// Serialize to a self-contained JSON document.
    #[must_use]
    pub fn render(&self) -> String {
        let spec = TrialSpec::generate(self.trial_seed);
        JsonValue::obj([
            ("version", JsonValue::I64(VERSION)),
            // As a hex string: JSON numbers (f64 beyond 2^53) cannot hold
            // every u64 losslessly.
            (
                "trial_seed",
                JsonValue::from(format!("{:#018x}", self.trial_seed)),
            ),
            ("program", program_to_json(&self.program)),
            (
                "shrink",
                JsonValue::obj([
                    (
                        "original_nodes",
                        JsonValue::from(self.shrink.original_nodes),
                    ),
                    ("final_nodes", JsonValue::from(self.shrink.final_nodes)),
                    ("tests", JsonValue::from(self.shrink.tests)),
                    ("accepted", JsonValue::from(self.shrink.accepted)),
                ]),
            ),
            (
                "failures",
                JsonValue::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            JsonValue::obj([
                                ("kind", JsonValue::from(f.kind.name())),
                                ("model", JsonValue::from(f.model.as_str())),
                                ("detail", JsonValue::from(f.detail.as_str())),
                                ("flight", JsonValue::from(f.flight.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            // Human-readable context; ignored by `parse` (re-derived from
            // `trial_seed` and `program` instead, so it can never go stale).
            ("config", JsonValue::from(format!("{:?}", spec.config))),
            ("ideal_window", JsonValue::from(spec.ideal_window)),
            ("listing", JsonValue::from(self.program.emit().to_string())),
        ])
        .render()
    }

    /// Parse an artifact back from [`Artifact::render`] output.
    ///
    /// # Errors
    /// Returns a description of the first structural problem found.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let version = v
            .get("version")
            .and_then(JsonValue::as_i64)
            .ok_or("missing version")?;
        if version != VERSION {
            return Err(format!("unsupported artifact version {version}"));
        }
        let seed_field = v.get("trial_seed").ok_or("missing trial_seed")?;
        let trial_seed = if let Some(s) = seed_field.as_str() {
            u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad trial_seed {s:?}: {e}"))?
        } else {
            seed_field.as_i64().ok_or("missing trial_seed")? as u64
        };
        let program = program_from_json(v.get("program").ok_or("missing program")?)?;
        let shrink = v
            .get("shrink")
            .map_or(Ok::<_, String>(ShrinkStats::default()), |s| {
                let field = |k: &str| {
                    s.get(k)
                        .and_then(JsonValue::as_i64)
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("shrink.{k} missing"))
                };
                Ok(ShrinkStats {
                    original_nodes: field("original_nodes")?,
                    final_nodes: field("final_nodes")?,
                    tests: field("tests")?,
                    accepted: field("accepted")?,
                })
            })?;
        let mut failures = Vec::new();
        if let Some(arr) = v.get("failures").and_then(JsonValue::as_array) {
            for f in arr {
                let str_field = |k: &str| {
                    f.get(k)
                        .and_then(JsonValue::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("failure field {k} missing"))
                };
                failures.push(Failure {
                    kind: FailureKind::from_name(&str_field("kind")?)
                        .ok_or("unknown failure kind")?,
                    model: str_field("model")?,
                    detail: str_field("detail")?,
                    flight: str_field("flight")?,
                });
            }
        }
        Ok(Artifact {
            trial_seed,
            program,
            shrink,
            failures,
        })
    }
}

/// Re-run an artifact's program under its trial's configuration and report
/// what fails now (empty when it passes). Fully deterministic: the spec is
/// re-derived from the artifact's trial seed and the program re-emitted
/// from its statement tree.
#[must_use]
pub fn replay(artifact: &Artifact) -> Vec<Failure> {
    let spec = TrialSpec::generate(artifact.trial_seed);
    check_program(&artifact.program.emit(), &spec).0
}

// ---- program (de)serialization -------------------------------------------

fn reg(r: Reg) -> JsonValue {
    JsonValue::I64(i64::from(r.number()))
}

fn op_to_json(op: &SimpleOp) -> JsonValue {
    let arr = |items: Vec<JsonValue>| JsonValue::Arr(items);
    match *op {
        SimpleOp::Add(d, a, b) => arr(vec!["add".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Sub(d, a, b) => arr(vec!["sub".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Xor(d, a, b) => arr(vec!["xor".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::And(d, a, b) => arr(vec!["and".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Or(d, a, b) => arr(vec!["or".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Mul(d, a, b) => arr(vec!["mul".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Slt(d, a, b) => arr(vec!["slt".into(), reg(d), reg(a), reg(b)]),
        SimpleOp::Addi(d, a, i) => arr(vec!["addi".into(), reg(d), reg(a), JsonValue::I64(i)]),
        SimpleOp::Srli(d, a, i) => arr(vec!["srli".into(), reg(d), reg(a), JsonValue::I64(i)]),
        SimpleOp::Load(d, i) => arr(vec!["load".into(), reg(d), JsonValue::I64(i)]),
        SimpleOp::Store(s, i) => arr(vec!["store".into(), reg(s), JsonValue::I64(i)]),
        SimpleOp::IndexedLoad { base, rd } => arr(vec!["iload".into(), reg(base), reg(rd)]),
        SimpleOp::IndexedStore { base, rs } => arr(vec!["istore".into(), reg(base), reg(rs)]),
    }
}

fn cond_name(k: CondKind) -> &'static str {
    match k {
        CondKind::Eq => "eq",
        CondKind::Ne => "ne",
        CondKind::Lt => "lt",
        CondKind::Ge => "ge",
    }
}

fn stmt_to_json(s: &Stmt) -> JsonValue {
    match s {
        Stmt::Op(op) => op_to_json(op),
        Stmt::If {
            kind,
            a,
            b,
            then,
            els,
        } => {
            let mut pairs = vec![
                ("if".to_owned(), JsonValue::from(cond_name(*kind))),
                ("a".to_owned(), reg(*a)),
                ("b".to_owned(), reg(*b)),
                ("then".to_owned(), stmts_to_json(then)),
            ];
            if let Some(els) = els {
                pairs.push(("els".to_owned(), stmts_to_json(els)));
            }
            JsonValue::Obj(pairs)
        }
        Stmt::Loop { trips, body } => JsonValue::obj([
            ("loop", JsonValue::from(*trips)),
            ("body", stmts_to_json(body)),
        ]),
        Stmt::Call(idx) => JsonValue::obj([("call", JsonValue::from(*idx))]),
    }
}

fn stmts_to_json(stmts: &[Stmt]) -> JsonValue {
    JsonValue::Arr(stmts.iter().map(stmt_to_json).collect())
}

pub(crate) fn program_to_json(p: &StructuredProgram) -> JsonValue {
    JsonValue::obj([
        (
            "init",
            JsonValue::Arr(
                p.init
                    .iter()
                    .map(|&(r, v)| JsonValue::Arr(vec![reg(r), JsonValue::I64(v)]))
                    .collect(),
            ),
        ),
        ("body", stmts_to_json(&p.body)),
        (
            "funcs",
            JsonValue::Arr(p.funcs.iter().map(|f| stmts_to_json(f)).collect()),
        ),
    ])
}

fn parse_reg(v: &JsonValue) -> Result<Reg, String> {
    let n = v.as_i64().ok_or("register must be a number")?;
    let n = u8::try_from(n).map_err(|_| format!("register {n} out of range"))?;
    Reg::try_from(n).map_err(|e| e.to_string())
}

fn parse_i64(v: &JsonValue) -> Result<i64, String> {
    v.as_i64().ok_or_else(|| "expected an integer".to_owned())
}

fn parse_op(items: &[JsonValue]) -> Result<SimpleOp, String> {
    let name = items
        .first()
        .and_then(JsonValue::as_str)
        .ok_or("op array must start with a name")?;
    let r = |i: usize| parse_reg(items.get(i).ok_or("op too short")?);
    let n = |i: usize| parse_i64(items.get(i).ok_or("op too short")?);
    Ok(match name {
        "add" => SimpleOp::Add(r(1)?, r(2)?, r(3)?),
        "sub" => SimpleOp::Sub(r(1)?, r(2)?, r(3)?),
        "xor" => SimpleOp::Xor(r(1)?, r(2)?, r(3)?),
        "and" => SimpleOp::And(r(1)?, r(2)?, r(3)?),
        "or" => SimpleOp::Or(r(1)?, r(2)?, r(3)?),
        "mul" => SimpleOp::Mul(r(1)?, r(2)?, r(3)?),
        "slt" => SimpleOp::Slt(r(1)?, r(2)?, r(3)?),
        "addi" => SimpleOp::Addi(r(1)?, r(2)?, n(3)?),
        "srli" => SimpleOp::Srli(r(1)?, r(2)?, n(3)?),
        "load" => SimpleOp::Load(r(1)?, n(2)?),
        "store" => SimpleOp::Store(r(1)?, n(2)?),
        "iload" => SimpleOp::IndexedLoad {
            base: r(1)?,
            rd: r(2)?,
        },
        "istore" => SimpleOp::IndexedStore {
            base: r(1)?,
            rs: r(2)?,
        },
        other => return Err(format!("unknown op {other}")),
    })
}

fn parse_cond(s: &str) -> Result<CondKind, String> {
    Ok(match s {
        "eq" => CondKind::Eq,
        "ne" => CondKind::Ne,
        "lt" => CondKind::Lt,
        "ge" => CondKind::Ge,
        other => return Err(format!("unknown condition {other}")),
    })
}

fn parse_stmt(v: &JsonValue) -> Result<Stmt, String> {
    if let Some(items) = v.as_array() {
        return Ok(Stmt::Op(parse_op(items)?));
    }
    if let Some(cond) = v.get("if") {
        let kind = parse_cond(cond.as_str().ok_or("if condition must be a string")?)?;
        let a = parse_reg(v.get("a").ok_or("if missing a")?)?;
        let b = parse_reg(v.get("b").ok_or("if missing b")?)?;
        let then = parse_stmts(v.get("then").ok_or("if missing then")?)?;
        let els = v.get("els").map(parse_stmts).transpose()?;
        return Ok(Stmt::If {
            kind,
            a,
            b,
            then,
            els,
        });
    }
    if let Some(trips) = v.get("loop") {
        let trips = u32::try_from(parse_i64(trips)?).map_err(|_| "bad trip count")?;
        let body = parse_stmts(v.get("body").ok_or("loop missing body")?)?;
        return Ok(Stmt::Loop { trips, body });
    }
    if let Some(idx) = v.get("call") {
        let idx = usize::try_from(parse_i64(idx)?).map_err(|_| "bad call index")?;
        return Ok(Stmt::Call(idx));
    }
    Err("unrecognized statement".to_owned())
}

fn parse_stmts(v: &JsonValue) -> Result<Vec<Stmt>, String> {
    v.as_array()
        .ok_or("statement list must be an array")?
        .iter()
        .map(parse_stmt)
        .collect()
}

pub(crate) fn program_from_json(v: &JsonValue) -> Result<StructuredProgram, String> {
    let mut init = Vec::new();
    for pair in v
        .get("init")
        .and_then(JsonValue::as_array)
        .ok_or("program missing init")?
    {
        let pair = pair.as_array().ok_or("init entry must be [reg, value]")?;
        if pair.len() != 2 {
            return Err("init entry must be [reg, value]".to_owned());
        }
        init.push((parse_reg(&pair[0])?, parse_i64(&pair[1])?));
    }
    let body = parse_stmts(v.get("body").ok_or("program missing body")?)?;
    let funcs = v
        .get("funcs")
        .and_then(JsonValue::as_array)
        .ok_or("program missing funcs")?
        .iter()
        .map(parse_stmts)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StructuredProgram { init, body, funcs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_workloads::random_structured;

    #[test]
    fn programs_round_trip_through_json() {
        for seed in [0, 1, 17, 99] {
            let sp = random_structured(seed, 150);
            let back = program_from_json(&program_to_json(&sp)).unwrap();
            assert_eq!(sp, back, "seed {seed}");
            assert_eq!(sp.emit(), back.emit(), "seed {seed}");
        }
    }

    #[test]
    fn artifacts_round_trip_and_replay_deterministically() {
        let trial_seed = 12;
        let spec = TrialSpec::generate(trial_seed);
        let artifact = Artifact {
            trial_seed,
            program: random_structured(spec.program_seed, spec.size_hint),
            shrink: ShrinkStats {
                original_nodes: 40,
                final_nodes: 40,
                tests: 0,
                accepted: 0,
            },
            failures: vec![Failure {
                kind: FailureKind::Divergence,
                model: "CI".to_owned(),
                detail: "made-up \"detail\"\nwith newline".to_owned(),
                flight: "cycle 1: ...".to_owned(),
            }],
        };
        let text = artifact.render();
        let back = Artifact::parse(&text).unwrap();
        assert_eq!(back.trial_seed, trial_seed);
        assert_eq!(back.program, artifact.program);
        assert_eq!(back.shrink, artifact.shrink);
        assert_eq!(back.failures.len(), 1);
        assert_eq!(back.failures[0].kind, FailureKind::Divergence);
        assert_eq!(back.failures[0].detail, artifact.failures[0].detail);

        // A healthy program replays clean.
        let failures = replay(&back);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn artifact_embeds_human_context() {
        let artifact = Artifact {
            trial_seed: 3,
            program: random_structured(5, 30),
            shrink: ShrinkStats::default(),
            failures: Vec::new(),
        };
        let text = artifact.render();
        let v = ci_obs::json::parse(&text).unwrap();
        assert!(v
            .get("config")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("window"));
        assert!(!v.get("listing").unwrap().as_str().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Artifact::parse("not json").is_err());
        assert!(Artifact::parse("{}").is_err());
        assert!(Artifact::parse(r#"{"version":99,"trial_seed":1}"#).is_err());
    }
}
