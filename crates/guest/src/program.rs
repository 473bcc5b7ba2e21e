//! Guest-kernel bytecode: the [`Op`] instruction set, the [`GuestProgram`]
//! container tenants register, static validation, and the tagged
//! [`Value`] wire encoding used by `_kaas/code/register`.

use kaas_accel::DeviceClass;
use kaas_kernels::{Value, WordHasher};

/// Wire tag identifying an encoded [`GuestProgram`] (first element of the
/// tagged list produced by [`GuestProgram::to_value`]).
pub const PROGRAM_TAG: &str = "kaas.guest.program";

/// Hard cap on vector lengths a guest may materialize (per value).
pub const MAX_VEC_LEN: u64 = 1 << 22;

/// One stack-machine instruction.
///
/// The machine operates on [`Value`]s: scalars (`U64`, `F64`) and flat
/// float vectors (`F64s`). There is no heap, no host calls, no ambient
/// time or randomness — a program is a pure function of its input and
/// its post-init globals, which is what makes registered kernels safe to
/// replay and snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push an unsigned integer literal.
    PushU(u64),
    /// Push a float literal.
    PushF(f64),
    /// Push a copy of the invocation input (Unit during init).
    Input,
    /// Push a copy of global `g`.
    Global(u8),
    /// Pop into global `g`. Valid only in the init program; validation
    /// rejects it in the body so instances are immutable once warm.
    SetGlobal(u8),
    /// Duplicate the top of stack.
    Dup,
    /// Drop the top of stack.
    Pop,
    /// Swap the top two stack slots.
    Swap,
    /// Pop b, pop a, push a + b (wrapping on integers).
    Add,
    /// Pop b, pop a, push a − b (wrapping on integers).
    Sub,
    /// Pop b, pop a, push a × b (wrapping on integers).
    Mul,
    /// Pop b, pop a, push a ÷ b; traps on a zero divisor.
    Div,
    /// Pop b, pop a, push a mod b; traps on a zero divisor.
    Rem,
    /// Pop a, push −a (as a float).
    Neg,
    /// Pop a, push √a; traps on negative input.
    Sqrt,
    /// Pop b, pop a, push min(a, b).
    Min,
    /// Pop b, pop a, push max(a, b).
    Max,
    /// Pop b, pop a, push 1 if a < b else 0.
    Lt,
    /// Pop b, pop a, push 1 if a = b else 0.
    Eq,
    /// Pop a value, push its element count (vector/bytes/text/list).
    Len,
    /// Pop index i, pop vector v, push v\[i\]; traps out of bounds.
    Get,
    /// Pop fill value f, pop count n, push a vector of n copies of f.
    VecFill,
    /// Pop scalar s, pop vector v, push v scaled by s.
    VecScale,
    /// Pop vector b, pop vector a, push a + b elementwise.
    VecAdd,
    /// Pop vector v, push the sum of its elements.
    VecSum,
    /// Pop vector b, pop vector a, push their dot product.
    VecDot,
    /// Unconditional jump to absolute instruction index.
    Jump(u16),
    /// Pop condition c, jump to absolute index if c is zero.
    JumpIfZero(u16),
    /// Pop the top of stack and return it as the kernel output.
    Return,
}

impl Op {
    /// Wire mnemonic (the name used in encodings and in verifier
    /// diagnostics).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::PushU(_) => "push.u",
            Op::PushF(_) => "push.f",
            Op::Input => "input",
            Op::Global(_) => "global",
            Op::SetGlobal(_) => "set_global",
            Op::Dup => "dup",
            Op::Pop => "pop",
            Op::Swap => "swap",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Rem => "rem",
            Op::Neg => "neg",
            Op::Sqrt => "sqrt",
            Op::Min => "min",
            Op::Max => "max",
            Op::Lt => "lt",
            Op::Eq => "eq",
            Op::Len => "len",
            Op::Get => "get",
            Op::VecFill => "vec.fill",
            Op::VecScale => "vec.scale",
            Op::VecAdd => "vec.add",
            Op::VecSum => "vec.sum",
            Op::VecDot => "vec.dot",
            Op::Jump(_) => "jump",
            Op::JumpIfZero(_) => "jump.ez",
            Op::Return => "return",
        }
    }
}

/// A validated-on-registration guest kernel program.
///
/// `init` runs once per instance (at register time, and conceptually on
/// every full-instantiate cold start); `body` runs per invocation with
/// read-only globals. `fuel_limit` bounds both.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestProgram {
    /// Kernel name (no `/`, `@`, whitespace, or leading `_`); the server
    /// namespaces it as `tenant/name@vN`.
    pub name: String,
    /// Device family the kernel targets.
    pub device_class: DeviceClass,
    /// Fuel budget per run (init and each body invocation separately).
    pub fuel_limit: u64,
    /// Declared work profile: fixed FLOPs per invocation…
    pub base_flops: f64,
    /// …plus FLOPs per input wire byte.
    pub flops_per_byte: f64,
    /// Declared output size for transfer modeling.
    pub bytes_out_hint: u64,
    /// Number of global slots.
    pub globals: u8,
    /// Register with a pre-initialized snapshot image (restore-path cold
    /// start) instead of paying full instantiate on every fresh runner.
    pub snapshot: bool,
    /// Runs once at instantiate time; may write globals.
    pub init: Vec<Op>,
    /// Runs per invocation; globals are read-only.
    pub body: Vec<Op>,
}

/// Why a program failed validation or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The kernel name is empty or contains reserved characters.
    BadName(String),
    /// `fuel_limit` is zero.
    ZeroFuel,
    /// The body is empty (nothing to run).
    EmptyBody,
    /// An instruction sequence exceeds the `u16` addressing range.
    TooLong(usize),
    /// A jump targets past the end of its sequence.
    BadJump {
        /// Instruction index of the offending jump.
        at: usize,
        /// Its (invalid) target.
        target: u16,
    },
    /// A global index is out of range for the declared slot count.
    BadGlobal {
        /// Instruction index of the offending access.
        at: usize,
        /// The out-of-range slot index.
        slot: u8,
    },
    /// `SetGlobal` appeared in the body (instances must stay immutable).
    SetGlobalInBody(usize),
    /// The wire encoding could not be decoded.
    Malformed(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadName(n) => write!(f, "bad kernel name {n:?}"),
            ProgramError::ZeroFuel => write!(f, "fuel_limit must be positive"),
            ProgramError::EmptyBody => write!(f, "body has no instructions"),
            ProgramError::TooLong(n) => write!(f, "program too long ({n} ops)"),
            ProgramError::BadJump { at, target } => {
                write!(f, "op {at}: jump target {target} out of range")
            }
            ProgramError::BadGlobal { at, slot } => {
                write!(f, "op {at}: global slot {slot} out of range")
            }
            ProgramError::SetGlobalInBody(at) => {
                write!(f, "op {at}: set_global is init-only")
            }
            ProgramError::Malformed(msg) => write!(f, "malformed program encoding: {msg}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl GuestProgram {
    /// A minimal program skeleton; fill in `init`/`body` and tune the
    /// knobs with the `with_*` builders.
    pub fn new(name: &str, device_class: DeviceClass) -> Self {
        GuestProgram {
            name: name.to_string(),
            device_class,
            fuel_limit: 1 << 20,
            base_flops: 0.0,
            flops_per_byte: 0.0,
            bytes_out_hint: 16,
            globals: 0,
            snapshot: false,
            init: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Sets the per-run fuel budget.
    pub fn with_fuel(mut self, fuel_limit: u64) -> Self {
        self.fuel_limit = fuel_limit;
        self
    }

    /// Declares the work profile used for device-time modeling.
    pub fn with_work(mut self, base_flops: f64, flops_per_byte: f64, bytes_out_hint: u64) -> Self {
        self.base_flops = base_flops;
        self.flops_per_byte = flops_per_byte;
        self.bytes_out_hint = bytes_out_hint;
        self
    }

    /// Declares `n` global slots and the init program that fills them.
    pub fn with_init(mut self, globals: u8, init: Vec<Op>) -> Self {
        self.globals = globals;
        self.init = init;
        self
    }

    /// Sets the per-invocation body.
    pub fn with_body(mut self, body: Vec<Op>) -> Self {
        self.body = body;
        self
    }

    /// Opts into the pre-initialized snapshot/restore cold-start path.
    pub fn with_snapshot(mut self) -> Self {
        self.snapshot = true;
        self
    }

    /// Statically validates the program: name shape, fuel, jump targets,
    /// global indices, and init-only `SetGlobal`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let bad_name = self.name.is_empty()
            || self.name.starts_with('_')
            || self
                .name
                .chars()
                .any(|c| c == '/' || c == '@' || c.is_whitespace());
        if bad_name {
            return Err(ProgramError::BadName(self.name.clone()));
        }
        if self.fuel_limit == 0 {
            return Err(ProgramError::ZeroFuel);
        }
        if self.body.is_empty() {
            return Err(ProgramError::EmptyBody);
        }
        for seq in [&self.init, &self.body] {
            if seq.len() > u16::MAX as usize {
                return Err(ProgramError::TooLong(seq.len()));
            }
        }
        self.check_seq(&self.init, true)?;
        self.check_seq(&self.body, false)
    }

    fn check_seq(&self, seq: &[Op], allow_set: bool) -> Result<(), ProgramError> {
        for (at, op) in seq.iter().enumerate() {
            match *op {
                Op::Jump(target) | Op::JumpIfZero(target) if target as usize > seq.len() => {
                    return Err(ProgramError::BadJump { at, target });
                }
                Op::SetGlobal(_) if !allow_set => {
                    return Err(ProgramError::SetGlobalInBody(at));
                }
                Op::Global(slot) | Op::SetGlobal(slot) if slot >= self.globals => {
                    return Err(ProgramError::BadGlobal { at, slot });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Content hash (a [`WordHasher`] over the canonical encoding, text
    /// length-framed); snapshot images embed it so a restore against
    /// the wrong program is rejected.
    pub fn hash(&self) -> u64 {
        let mut h = WordHasher::new();
        let text = |h: &mut WordHasher, t: &str| {
            h.write_u64(t.len() as u64);
            h.write_bytes(t.as_bytes());
        };
        text(&mut h, &self.name);
        text(&mut h, &self.device_class.to_string());
        h.write_u64(self.fuel_limit);
        h.write_u64(self.base_flops.to_bits());
        h.write_u64(self.flops_per_byte.to_bits());
        h.write_u64(self.bytes_out_hint);
        h.write_u64(u64::from(self.globals));
        h.write_u64(u64::from(self.snapshot));
        for seq in [&self.init, &self.body] {
            h.write_u64(seq.len() as u64);
            for op in seq {
                for v in encode_op(op) {
                    match v {
                        Value::Text(t) => text(&mut h, &t),
                        Value::U64(n) => h.write_u64(n),
                        Value::F64(x) => h.write_u64(x.to_bits()),
                        _ => {}
                    }
                }
            }
        }
        h.finish()
    }

    /// Encodes the program as a tagged [`Value::List`] for the wire.
    pub fn to_value(&self) -> Value {
        Value::List(vec![
            Value::Text(PROGRAM_TAG.to_string()),
            Value::Text(self.name.clone()),
            Value::Text(self.device_class.to_string()),
            Value::U64(self.fuel_limit),
            Value::F64(self.base_flops),
            Value::F64(self.flops_per_byte),
            Value::U64(self.bytes_out_hint),
            Value::U64(self.globals as u64),
            Value::U64(self.snapshot as u64),
            Value::List(
                self.init
                    .iter()
                    .map(|op| Value::List(encode_op(op)))
                    .collect(),
            ),
            Value::List(
                self.body
                    .iter()
                    .map(|op| Value::List(encode_op(op)))
                    .collect(),
            ),
        ])
    }

    /// Decodes a program from its tagged wire encoding. Does **not**
    /// validate — call [`GuestProgram::validate`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Malformed`] on any structural mismatch.
    pub fn from_value(v: &Value) -> Result<GuestProgram, ProgramError> {
        let bad = |msg: &str| ProgramError::Malformed(msg.to_string());
        let items = match v {
            Value::List(items) if items.len() == 11 => items,
            _ => return Err(bad("expected an 11-element tagged list")),
        };
        match &items[0] {
            Value::Text(t) if t == PROGRAM_TAG => {}
            _ => return Err(bad("missing program tag")),
        }
        let text = |i: usize| match &items[i] {
            Value::Text(t) => Ok(t.clone()),
            _ => Err(bad("expected text field")),
        };
        let u64f = |i: usize| match &items[i] {
            Value::U64(n) => Ok(*n),
            _ => Err(bad("expected u64 field")),
        };
        let f64f = |i: usize| match &items[i] {
            Value::F64(x) => Ok(*x),
            _ => Err(bad("expected f64 field")),
        };
        let device_class = match text(2)?.as_str() {
            "CPU" => DeviceClass::Cpu,
            "GPU" => DeviceClass::Gpu,
            "FPGA" => DeviceClass::Fpga,
            "TPU" => DeviceClass::Tpu,
            "QPU" => DeviceClass::Qpu,
            other => {
                return Err(ProgramError::Malformed(format!(
                    "unknown device class {other:?}"
                )))
            }
        };
        let ops = |i: usize| -> Result<Vec<Op>, ProgramError> {
            let list = match &items[i] {
                Value::List(l) => l,
                _ => return Err(bad("expected op list")),
            };
            list.iter()
                .map(|item| match item {
                    Value::List(parts) => decode_op(parts),
                    _ => Err(bad("expected op encoding list")),
                })
                .collect()
        };
        let globals = u64f(7)?;
        if globals > u8::MAX as u64 {
            return Err(bad("too many globals"));
        }
        Ok(GuestProgram {
            name: text(1)?,
            device_class,
            fuel_limit: u64f(3)?,
            base_flops: f64f(4)?,
            flops_per_byte: f64f(5)?,
            bytes_out_hint: u64f(6)?,
            globals: globals as u8,
            snapshot: u64f(8)? != 0,
            init: ops(9)?,
            body: ops(10)?,
        })
    }
}

fn encode_op(op: &Op) -> Vec<Value> {
    let mut parts = vec![Value::Text(op.mnemonic().to_string())];
    match *op {
        Op::PushU(n) => parts.push(Value::U64(n)),
        Op::PushF(x) => parts.push(Value::F64(x)),
        Op::Global(g) | Op::SetGlobal(g) => parts.push(Value::U64(g as u64)),
        Op::Jump(target) | Op::JumpIfZero(target) => parts.push(Value::U64(target as u64)),
        _ => {}
    }
    parts
}

fn decode_op(parts: &[Value]) -> Result<Op, ProgramError> {
    let bad = |msg: String| ProgramError::Malformed(msg);
    let name = match parts.first() {
        Some(Value::Text(t)) => t.as_str(),
        _ => return Err(bad("op missing mnemonic".to_string())),
    };
    let arg_u64 = || match parts.get(1) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(bad(format!("op {name} missing u64 argument"))),
    };
    let arg_u8 = || {
        arg_u64().and_then(|n| {
            u8::try_from(n).map_err(|_| bad(format!("op {name} argument {n} exceeds u8")))
        })
    };
    let arg_u16 = || {
        arg_u64().and_then(|n| {
            u16::try_from(n).map_err(|_| bad(format!("op {name} argument {n} exceeds u16")))
        })
    };
    Ok(match name {
        "push.u" => Op::PushU(arg_u64()?),
        "push.f" => match parts.get(1) {
            Some(Value::F64(x)) => Op::PushF(*x),
            _ => return Err(bad("op push.f missing f64 argument".to_string())),
        },
        "input" => Op::Input,
        "global" => Op::Global(arg_u8()?),
        "set_global" => Op::SetGlobal(arg_u8()?),
        "dup" => Op::Dup,
        "pop" => Op::Pop,
        "swap" => Op::Swap,
        "add" => Op::Add,
        "sub" => Op::Sub,
        "mul" => Op::Mul,
        "div" => Op::Div,
        "rem" => Op::Rem,
        "neg" => Op::Neg,
        "sqrt" => Op::Sqrt,
        "min" => Op::Min,
        "max" => Op::Max,
        "lt" => Op::Lt,
        "eq" => Op::Eq,
        "len" => Op::Len,
        "get" => Op::Get,
        "vec.fill" => Op::VecFill,
        "vec.scale" => Op::VecScale,
        "vec.add" => Op::VecAdd,
        "vec.sum" => Op::VecSum,
        "vec.dot" => Op::VecDot,
        "jump" => Op::Jump(arg_u16()?),
        "jump.ez" => Op::JumpIfZero(arg_u16()?),
        "return" => Op::Return,
        other => return Err(bad(format!("unknown op {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GuestProgram {
        GuestProgram::new("axpy", DeviceClass::Gpu)
            .with_fuel(10_000)
            .with_work(100.0, 2.0, 64)
            .with_init(
                1,
                vec![Op::PushU(4), Op::PushF(2.5), Op::VecFill, Op::SetGlobal(0)],
            )
            .with_body(vec![Op::Input, Op::Global(0), Op::VecDot, Op::Return])
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        p.validate().unwrap();
        let decoded = GuestProgram::from_value(&p.to_value()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.hash(), p.hash());
    }

    #[test]
    fn hash_is_content_sensitive() {
        let p = sample();
        let mut q = sample();
        q.body.push(Op::Pop);
        assert_ne!(p.hash(), q.hash());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut p = sample();
        p.name = "a/b".to_string();
        assert!(matches!(p.validate(), Err(ProgramError::BadName(_))));
        let mut p = sample();
        p.name = "_sneaky".to_string();
        assert!(matches!(p.validate(), Err(ProgramError::BadName(_))));
        let mut p = sample();
        p.fuel_limit = 0;
        assert_eq!(p.validate(), Err(ProgramError::ZeroFuel));
        let mut p = sample();
        p.body.clear();
        assert_eq!(p.validate(), Err(ProgramError::EmptyBody));
        let mut p = sample();
        p.body = vec![Op::Jump(99), Op::Return];
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadJump { at: 0, target: 99 })
        );
        let mut p = sample();
        p.body = vec![Op::Global(7), Op::Return];
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadGlobal { at: 0, slot: 7 })
        );
        let mut p = sample();
        p.body = vec![Op::PushU(1), Op::SetGlobal(0), Op::Return];
        assert_eq!(p.validate(), Err(ProgramError::SetGlobalInBody(1)));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(GuestProgram::from_value(&Value::U64(1)).is_err());
        assert!(GuestProgram::from_value(&Value::List(vec![])).is_err());
        let mut items = match sample().to_value() {
            Value::List(items) => items,
            _ => unreachable!(),
        };
        items[0] = Value::Text("wrong.tag".to_string());
        assert!(GuestProgram::from_value(&Value::List(items)).is_err());
    }
}
