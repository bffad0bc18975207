//! A human-readable disassembler for the flat bytecode.
//!
//! [`Disassembly`] wraps a [`CompiledProgram`] and renders one line per
//! instruction through [`core::fmt::Display`]: a four-digit instruction
//! index, a mnemonic, operands with every interned name resolved (tables,
//! actions, headers, parser states, controls) and `-> NNNN` arrows on
//! jump targets. Action bodies are labelled at their entry points:
//!
//! ```text
//! 0002  jump             -> 0004
//! ```

use crate::compile::{CompiledProgram, OpCode, NO_HIT_LOCAL};
use core::fmt;

/// Lazily rendered disassembly of a [`CompiledProgram`]; obtain via
/// `CompiledProgram::disassemble()` or `Dataplane::disassemble()` and
/// print with `{}`.
pub struct Disassembly<'a> {
    cp: &'a CompiledProgram,
}

impl<'a> Disassembly<'a> {
    pub(crate) fn new(cp: &'a CompiledProgram) -> Disassembly<'a> {
        Disassembly { cp }
    }
}

impl fmt::Display for Disassembly<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cp = self.cp;
        let names = cp.names();
        let hdr = |h: u32| names.headers[h as usize].as_ref();
        for (pc, op) in cp.code.iter().enumerate() {
            for (aid, &entry) in cp.action_pcs.iter().enumerate() {
                if entry as usize == pc {
                    writeln!(f, "{}:", names.actions[aid])?;
                }
            }
            write!(f, "{pc:04}  ")?;
            match *op {
                OpCode::Const(v) => writeln!(f, "{:<17}{v:#x}", "const")?,
                OpCode::LoadField(h, x) => writeln!(f, "{:<17}{}[{x}]", "load_field", hdr(h))?,
                OpCode::LoadFieldRaw(h, x) => {
                    writeln!(f, "{:<17}{}[{x}]", "load_field_raw", hdr(h))?
                }
                OpCode::LoadMeta(m) => writeln!(f, "{:<17}m{m}", "load_meta")?,
                OpCode::LoadStd(s) => writeln!(f, "{:<17}{s:?}", "load_std")?,
                OpCode::LoadParam(i, w) => writeln!(f, "{:<17}p{i} w{w}", "load_param")?,
                OpCode::LoadLocal(l) => writeln!(f, "{:<17}l{l}", "load_local")?,
                OpCode::LoadIsValid(h) => writeln!(f, "{:<17}{}", "load_is_valid", hdr(h))?,
                OpCode::Un(op, w) => writeln!(f, "{:<17}{op:?} w{w}", "un")?,
                OpCode::Bin(op, w) => writeln!(f, "{:<17}{op:?} w{w}", "bin")?,
                OpCode::Concat(s, w) => writeln!(f, "{:<17}shift={s} w{w}", "concat")?,
                OpCode::SliceE(hi, lo) => writeln!(f, "{:<17}[{hi}:{lo}]", "slice")?,
                OpCode::CastE(w) => writeln!(f, "{:<17}w{w}", "cast")?,
                OpCode::SliceMerge(hi, lo) => writeln!(f, "{:<17}[{hi}:{lo}]", "slice_merge")?,
                OpCode::StoreField(h, x, w) => {
                    writeln!(f, "{:<17}{}[{x}] w{w}", "store_field", hdr(h))?
                }
                OpCode::StoreMeta(m, w) => writeln!(f, "{:<17}m{m} w{w}", "store_meta")?,
                OpCode::StoreLocal(l, w) => writeln!(f, "{:<17}l{l} w{w}", "store_local")?,
                OpCode::StoreEgressSpec => writeln!(f, "store_egress_spec")?,
                OpCode::StorePacketLength => writeln!(f, "store_packet_length")?,
                OpCode::StoreTimestamp => writeln!(f, "store_timestamp")?,
                OpCode::Pop => writeln!(f, "pop")?,
                OpCode::Jump(t) => writeln!(f, "{:<17}-> {t:04}", "jump")?,
                OpCode::BranchIfZero(t) => writeln!(f, "{:<17}-> {t:04}", "branch_if_zero")?,
                OpCode::Return => writeln!(f, "return")?,
                OpCode::Exit(t) => writeln!(f, "{:<17}-> {t:04}", "exit")?,
                OpCode::Apply {
                    tid,
                    nkeys,
                    hit_into,
                } => {
                    write!(
                        f,
                        "{:<17}{} nkeys={nkeys}",
                        "apply", names.tables[tid as usize]
                    )?;
                    if hit_into != NO_HIT_LOCAL {
                        write!(f, " hit->l{hit_into}")?;
                    }
                    writeln!(f)?
                }
                OpCode::MarkDrop => writeln!(f, "mark_drop")?,
                OpCode::SetValidHdr(h, v) => writeln!(f, "{:<17}{} {v}", "set_valid", hdr(h))?,
                OpCode::CounterInc(id) => writeln!(f, "{:<17}c{id}", "counter_inc")?,
                OpCode::RegisterRead(id) => writeln!(f, "{:<17}r{id}", "register_read")?,
                OpCode::RegisterWrite(id) => writeln!(f, "{:<17}r{id}", "register_write")?,
                OpCode::MeterExecute(id) => writeln!(f, "{:<17}mt{id}", "meter_execute")?,
                OpCode::StateEnter(sid) => {
                    writeln!(f, "{:<17}{}", "state_enter", names.states[sid as usize])?
                }
                OpCode::Extract(h) => writeln!(f, "{:<17}{}", "extract", hdr(h))?,
                OpCode::Select(sid) => {
                    let sel = &cp.selects[sid as usize];
                    write!(f, "{:<17}nkeys={}", "select", sel.nkeys)?;
                    for (pats, t) in &sel.arms {
                        write!(f, " {pats:?} -> {t:04}")?;
                    }
                    writeln!(f, " default -> {:04}", sel.default)?
                }
                OpCode::Accept => writeln!(f, "accept")?,
                OpCode::Reject => writeln!(f, "reject")?,
                OpCode::ControlEnter(cid) => {
                    writeln!(f, "{:<17}{}", "control_enter", names.controls[cid as usize])?
                }
                OpCode::Finish => writeln!(f, "finish")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::CompiledProgram;
    use netdebug_p4::corpus;

    /// Pins the exact disassembly of the reflector — the smallest corpus
    /// program — so any change to lowering or rendering is a conscious
    /// one.
    #[test]
    fn reflector_disassembly_is_pinned() {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let cp = CompiledProgram::compile(&ir);
        let text = format!("{}", cp.disassemble());
        let expected = "\
0000  state_enter      start
0001  extract          ethernet
0002  jump             -> 0004
0003  reject
0004  accept
0005  control_enter    RefIngress
0006  load_field       ethernet[0]
0007  store_meta       m0 w48
0008  load_field       ethernet[1]
0009  store_field      ethernet[0] w48
0010  load_meta        m0
0011  store_field      ethernet[1] w48
0012  load_std         IngressPort
0013  store_egress_spec
0014  finish
NoAction:
0015  return
";
        assert_eq!(text, expected, "actual:\n{text}");
    }
}
