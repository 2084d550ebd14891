//! Textual IR printing.
//!
//! Prints the MLIR-like textual form. Every operation can be printed in the
//! *generic* form:
//!
//! ```text
//! %0 = "arith.constant"() {value = 4} : () -> index
//! "func.return"(%0) : (index) -> ()
//! ```
//!
//! A few frequent operations (`builtin.module`, `func.func`, `scf.for`,
//! `arith.constant`, `func.return`, `scf.yield`,
//! `transform.named_sequence`) have a *custom* (pretty) form that the
//! parser also understands, so printing and parsing round-trip.
//!
//! One print numbers the subtree's values and blocks into dense tables
//! indexed by arena slot, each entry remembering the generation it
//! numbered, so a use writes its number straight into the output and an id
//! from outside the subtree (or a stale id whose slot was reused inside it)
//! prints `%<unnumbered>` / `^<?>`. Each interned type is rendered once per
//! print and copied from then on.

use crate::attrs::{Attribute, FloatVal};
use crate::ir::{BlockId, Context, OpId, ValueId};
use crate::types::{Extent, TypeId, TypeKind};
use std::fmt::Write;
use td_support::{Idx, Symbol};

/// Prints a single operation (and everything nested in it).
pub fn print_op(ctx: &Context, op: OpId) -> String {
    let mut printer = Printer::new(ctx);
    printer.number_op(op);
    printer.print_op(op, 0);
    printer.out
}

/// Prints a type.
pub fn print_type(ctx: &Context, ty: TypeId) -> String {
    let mut out = String::new();
    write_type(ctx, ty, &mut out);
    out
}

/// Prints an attribute.
pub fn print_attribute(ctx: &Context, attr: &Attribute) -> String {
    let mut out = String::new();
    write_attr(ctx, attr, &mut out);
    out
}

fn write_type(ctx: &Context, ty: TypeId, out: &mut String) {
    match ctx.type_kind(ty) {
        TypeKind::Integer(width) => write!(out, "i{width}").unwrap(),
        TypeKind::Index => out.push_str("index"),
        TypeKind::F32 => out.push_str("f32"),
        TypeKind::F64 => out.push_str("f64"),
        TypeKind::None => out.push_str("none"),
        TypeKind::Function { inputs, results } => {
            out.push('(');
            for (i, &t) in inputs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_type(ctx, t, out);
            }
            out.push_str(") -> ");
            write_result_types(ctx, results.iter().copied(), out, |t, out| {
                write_type(ctx, t, out)
            });
        }
        TypeKind::MemRef {
            shape,
            element,
            offset,
            strides,
        } => {
            out.push_str("memref<");
            for extent in shape {
                write!(out, "{extent}x").unwrap();
            }
            write_type(ctx, *element, out);
            let identity = *offset == Extent::Static(0) && strides.is_empty();
            if !identity {
                out.push_str(", strided<[");
                for (i, s) in strides.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write!(out, "{s}").unwrap();
                }
                write!(out, "], offset: {offset}>").unwrap();
            }
            out.push('>');
        }
        TypeKind::Tensor { shape, element } => {
            out.push_str("tensor<");
            for extent in shape {
                write!(out, "{extent}x").unwrap();
            }
            write_type(ctx, *element, out);
            out.push('>');
        }
        TypeKind::LlvmPtr => out.push_str("!llvm.ptr"),
        TypeKind::LlvmStruct(fields) => {
            out.push_str("!llvm.struct<(");
            for (i, &t) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_type(ctx, t, out);
            }
            out.push_str(")>");
        }
        TypeKind::TransformAnyOp => out.push_str("!transform.any_op"),
        TypeKind::TransformOp(name) => write!(out, "!transform.op<\"{name}\">").unwrap(),
        TypeKind::TransformParam => out.push_str("!transform.param"),
        TypeKind::TransformAnyValue => out.push_str("!transform.any_value"),
        TypeKind::Opaque(name) => write!(out, "!{name}").unwrap(),
    }
}

/// Writes a result type list with `put`: one type bare, any other count
/// parenthesized.
fn write_result_types(
    ctx: &Context,
    mut results: impl ExactSizeIterator<Item = TypeId>,
    out: &mut String,
    mut put: impl FnMut(TypeId, &mut String),
) {
    if results.len() == 1 {
        let ty = results.next().expect("one result");
        // A single function-typed result still needs parentheses to stay
        // unambiguous.
        if matches!(ctx.type_kind(ty), TypeKind::Function { .. }) {
            out.push('(');
            put(ty, out);
            out.push(')');
        } else {
            put(ty, out);
        }
    } else {
        out.push('(');
        for (i, ty) in results.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            put(ty, out);
        }
        out.push(')');
    }
}

fn write_attr(ctx: &Context, attr: &Attribute, out: &mut String) {
    match attr {
        Attribute::Unit => out.push_str("unit"),
        Attribute::Bool(b) => write!(out, "{b}").unwrap(),
        Attribute::Int(v) => {
            if *v < 0 {
                out.push('-');
            }
            push_decimal(out, v.unsigned_abs());
        }
        Attribute::Float(FloatVal(v)) => {
            let fv = FloatVal(*v);
            write!(out, "{fv}").unwrap();
        }
        Attribute::String(s) => write!(out, "{s:?}").unwrap(),
        Attribute::SymbolRef(s) => write!(out, "@{s}").unwrap(),
        Attribute::Type(t) => write_type(ctx, *t, out),
        Attribute::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_attr(ctx, item, out);
            }
            out.push(']');
        }
        Attribute::DenseF64 { shape, data } => {
            out.push_str("dense<shape = [");
            for (i, d) in shape.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{d}").unwrap();
            }
            out.push_str("], values = [");
            for (i, v) in data.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{v}").unwrap();
            }
            out.push_str("]>");
        }
    }
}

/// Appends `n` in decimal without going through `fmt`.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Numbers assigned to arena slots. An entry holds the generation it was
/// assigned for, so an id of another generation in the same slot (a stale
/// id whose slot was reused) reads as unnumbered, as it would in a map
/// keyed by the whole id.
struct Numbering {
    slots: Vec<(u32, u32)>,
    next: u32,
}

impl Numbering {
    const UNNUMBERED: (u32, u32) = (0, u32::MAX);

    fn new() -> Self {
        Numbering {
            slots: Vec::new(),
            next: 0,
        }
    }

    fn assign<T>(&mut self, id: Idx<T>) {
        let slot = id.index() as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, Self::UNNUMBERED);
        }
        self.slots[slot] = (id.generation(), self.next);
        self.next += 1;
    }

    fn get<T>(&self, id: Idx<T>) -> Option<u32> {
        match self.slots.get(id.index() as usize) {
            Some(&(generation, number)) if generation == id.generation() && number != u32::MAX => {
                Some(number)
            }
            _ => None,
        }
    }
}

/// Each interned type's text, rendered on first use: `spans[raw]` is its
/// byte range in `text`, empty until rendered (no type prints as nothing).
struct TypeTexts {
    text: String,
    spans: Vec<(u32, u32)>,
}

impl TypeTexts {
    fn push(&mut self, ctx: &Context, ty: TypeId, out: &mut String) {
        let (mut start, mut end) = self.spans[ty.raw() as usize];
        if start == end {
            start = self.text.len() as u32;
            write_type(ctx, ty, &mut self.text);
            end = self.text.len() as u32;
            self.spans[ty.raw() as usize] = (start, end);
        }
        out.push_str(&self.text[start as usize..end as usize]);
    }
}

struct Printer<'c> {
    ctx: &'c Context,
    values: Numbering,
    blocks: Numbering,
    types: TypeTexts,
    out: String,
}

impl<'c> Printer<'c> {
    fn new(ctx: &'c Context) -> Self {
        Printer {
            ctx,
            values: Numbering::new(),
            blocks: Numbering::new(),
            types: TypeTexts {
                text: String::new(),
                spans: vec![(0, 0); ctx.types.len()],
            },
            out: String::new(),
        }
    }

    /// Assigns numbers to all values and blocks in `op`'s subtree, in
    /// syntactic order.
    fn number_op(&mut self, op: OpId) {
        let ctx = self.ctx;
        let data = ctx.op(op);
        for &result in data.results() {
            self.values.assign(result);
        }
        for &region in data.regions() {
            for &block in ctx.region(region).blocks() {
                self.blocks.assign(block);
                for &arg in ctx.block(block).args() {
                    self.values.assign(arg);
                }
                for nested in ctx.block_ops(block) {
                    self.number_op(nested);
                }
            }
        }
    }

    fn push_value(&mut self, value: ValueId) {
        match self.values.get(value) {
            Some(n) => {
                self.out.push('%');
                push_decimal(&mut self.out, u64::from(n));
            }
            None => self.out.push_str("%<unnumbered>"),
        }
    }

    fn push_block(&mut self, block: BlockId) {
        match self.blocks.get(block) {
            Some(n) => {
                self.out.push_str("^bb");
                push_decimal(&mut self.out, u64::from(n));
            }
            None => self.out.push_str("^<?>"),
        }
    }

    fn push_type(&mut self, ty: TypeId) {
        self.types.push(self.ctx, ty, &mut self.out);
    }

    /// `v0, v1, …`
    fn push_values(&mut self, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.push_value(v);
        }
    }

    /// The types of `values`, comma separated.
    fn push_value_types(&mut self, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.push_type(self.ctx.value_type(v));
        }
    }

    /// `%a: T, %b: U` (block and function arguments).
    fn push_typed_args(&mut self, args: &[ValueId]) {
        for (i, &arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.push_value(arg);
            self.out.push_str(": ");
            self.push_type(self.ctx.value_type(arg));
        }
    }

    fn push_result_types(&mut self, results: impl ExactSizeIterator<Item = TypeId>) {
        let (ctx, types) = (self.ctx, &mut self.types);
        write_result_types(ctx, results, &mut self.out, |t, out| {
            types.push(ctx, t, out)
        });
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn print_op(&mut self, op: OpId, depth: usize) {
        self.indent(depth);
        let name = self.ctx.op(op).name.as_str();
        match name {
            "builtin.module" => self.print_module(op, depth),
            "func.func" | "transform.named_sequence" => self.print_function_like(op, name, depth),
            "arith.constant" => self.print_constant(op),
            "func.return" | "scf.yield" => self.print_bare_with_operands(op, name),
            "scf.for" => self.print_scf_for(op, depth),
            _ => self.print_generic(op, name, depth),
        }
        self.out.push('\n');
    }

    fn print_ops(&mut self, ops: impl Iterator<Item = OpId>, depth: usize) {
        for nested in ops {
            self.print_op(nested, depth);
        }
    }

    fn print_module(&mut self, op: OpId, depth: usize) {
        let ctx = self.ctx;
        self.out.push_str("module");
        if let Some(Attribute::String(name)) = ctx.op(op).attr("sym_name") {
            self.out.push_str(" @");
            self.out.push_str(name);
        }
        self.out.push_str(" {\n");
        let block = ctx.sole_block(op, 0);
        self.print_ops(ctx.block_ops(block), depth + 1);
        self.indent(depth);
        self.out.push('}');
    }

    fn print_function_like(&mut self, op: OpId, name: &str, depth: usize) {
        let ctx = self.ctx;
        let data = ctx.op(op);
        self.out.push_str(name);
        self.out.push_str(" @");
        match data.attr("sym_name") {
            Some(Attribute::String(s)) => self.out.push_str(s),
            _ => self.out.push_str("<anonymous>"),
        }
        self.out.push('(');
        if data.regions().is_empty() || ctx.region(data.regions()[0]).blocks().is_empty() {
            // Declaration only.
            self.out.push(')');
            return;
        }
        let body = ctx.sole_block(op, 0);
        self.push_typed_args(ctx.block(body).args());
        self.out.push(')');
        if let Some(Attribute::Type(fty)) = data.attr("function_type") {
            if let TypeKind::Function { results, .. } = ctx.type_kind(*fty) {
                if !results.is_empty() {
                    self.out.push_str(" -> ");
                    self.push_result_types(results.iter().copied());
                }
            }
        }
        self.out.push_str(" {\n");
        self.print_ops(ctx.block_ops(body), depth + 1);
        self.indent(depth);
        self.out.push('}');
    }

    fn print_constant(&mut self, op: OpId) {
        let ctx = self.ctx;
        let data = ctx.op(op);
        let result = data.results()[0];
        self.push_value(result);
        self.out.push_str(" = arith.constant ");
        match data.attr("value") {
            Some(value) => write_attr(ctx, value, &mut self.out),
            None => self.out.push_str("unit"),
        }
        self.out.push_str(" : ");
        self.push_type(ctx.value_type(result));
    }

    fn print_bare_with_operands(&mut self, op: OpId, name: &str) {
        let operands = self.ctx.op(op).operands();
        self.out.push_str(name);
        if !operands.is_empty() {
            self.out.push(' ');
            self.push_values(operands);
            self.out.push_str(" : ");
            self.push_value_types(operands);
        }
    }

    fn print_scf_for(&mut self, op: OpId, depth: usize) {
        let ctx = self.ctx;
        let data = ctx.op(op);
        let operands = data.operands();
        let body = ctx.sole_block(op, 0);
        self.out.push_str("scf.for ");
        self.push_value(ctx.block(body).args()[0]);
        self.out.push_str(" = ");
        self.push_value(operands[0]);
        self.out.push_str(" to ");
        self.push_value(operands[1]);
        self.out.push_str(" step ");
        self.push_value(operands[2]);
        self.out.push_str(" {\n");
        // The trailing scf.yield is implicit in the custom syntax.
        let mut body_ops = ctx.block_ops(body);
        if let Some(last) = ctx.block(body).last_op() {
            let last = ctx.op(last);
            if last.name.as_str() == "scf.yield" && last.operands().is_empty() {
                body_ops.next_back();
            }
        }
        self.print_ops(body_ops, depth + 1);
        self.indent(depth);
        self.out.push('}');
        // Extra attributes (e.g. markers left by transforms) print after the
        // body, where they are unambiguous to parse.
        if !data.attributes().is_empty() {
            self.print_attr_dict(data.attributes());
        }
    }

    fn print_attr_dict(&mut self, attrs: &[(Symbol, Attribute)]) {
        self.out.push_str(" {");
        for (i, (key, value)) in attrs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(key.as_str());
            if *value != Attribute::Unit {
                self.out.push_str(" = ");
                write_attr(self.ctx, value, &mut self.out);
            }
        }
        self.out.push('}');
    }

    fn print_generic(&mut self, op: OpId, name: &str, depth: usize) {
        let ctx = self.ctx;
        let data = ctx.op(op);
        let results = data.results();
        let operands = data.operands();

        if !results.is_empty() {
            self.push_values(results);
            self.out.push_str(" = ");
        }
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\"(");
        self.push_values(operands);
        self.out.push(')');
        if !data.successors().is_empty() {
            self.out.push('[');
            for (i, &b) in data.successors().iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.push_block(b);
            }
            self.out.push(']');
        }
        if !data.regions().is_empty() {
            self.out.push_str(" (");
            for (ri, &region) in data.regions().iter().enumerate() {
                if ri > 0 {
                    self.out.push_str(", ");
                }
                self.out.push_str("{\n");
                for (bi, &block) in ctx.region(region).blocks().iter().enumerate() {
                    // The entry block header is implicit when it has no args.
                    let args = ctx.block(block).args();
                    if bi > 0 || !args.is_empty() {
                        self.indent(depth);
                        self.push_block(block);
                        if !args.is_empty() {
                            self.out.push('(');
                            self.push_typed_args(args);
                            self.out.push(')');
                        }
                        self.out.push_str(":\n");
                    }
                    self.print_ops(ctx.block_ops(block), depth + 1);
                }
                self.indent(depth);
                self.out.push('}');
            }
            self.out.push(')');
        }
        if !data.attributes().is_empty() {
            self.print_attr_dict(data.attributes());
        }
        self.out.push_str(" : (");
        self.push_value_types(operands);
        self.out.push_str(") -> ");
        self.push_result_types(results.iter().map(|&r| ctx.value_type(r)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use td_support::Location;

    #[test]
    fn prints_generic_op() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let v = b.const_index(4);
        b.op("test.use").operand(v).build();
        let text = print_op(&ctx, module);
        assert!(
            text.contains("%0 = arith.constant 4 : index"),
            "got:\n{text}"
        );
        assert!(
            text.contains("\"test.use\"(%0) : (index) -> ()"),
            "got:\n{text}"
        );
    }

    #[test]
    fn prints_memref_types() {
        let mut ctx = Context::new();
        let f32t = ctx.f32_type();
        let plain = ctx.intern_type(TypeKind::MemRef {
            shape: vec![Extent::Static(4), Extent::Static(4)],
            element: f32t,
            offset: Extent::Static(0),
            strides: vec![],
        });
        assert_eq!(print_type(&ctx, plain), "memref<4x4xf32>");
        let strided = ctx.intern_type(TypeKind::MemRef {
            shape: vec![Extent::Static(4), Extent::Dynamic],
            element: f32t,
            offset: Extent::Dynamic,
            strides: vec![Extent::Static(64), Extent::Static(1)],
        });
        assert_eq!(
            print_type(&ctx, strided),
            "memref<4x?xf32, strided<[64, 1], offset: ?>>"
        );
    }

    #[test]
    fn prints_function_and_transform_types() {
        let mut ctx = Context::new();
        let i32t = ctx.i32_type();
        let f = ctx.intern_type(TypeKind::Function {
            inputs: vec![i32t],
            results: vec![i32t],
        });
        assert_eq!(print_type(&ctx, f), "(i32) -> i32");
        let anyop = ctx.transform_any_op_type();
        assert_eq!(print_type(&ctx, anyop), "!transform.any_op");
        let opty = ctx.intern_type(TypeKind::TransformOp(Symbol::new("scf.for")));
        assert_eq!(print_type(&ctx, opty), "!transform.op<\"scf.for\">");
    }

    #[test]
    fn prints_attributes() {
        let ctx = Context::new();
        assert_eq!(print_attribute(&ctx, &Attribute::Int(-3)), "-3");
        assert_eq!(
            print_attribute(&ctx, &Attribute::Int(i64::MIN)),
            "-9223372036854775808"
        );
        assert_eq!(print_attribute(&ctx, &Attribute::Int(0)), "0");
        assert_eq!(print_attribute(&ctx, &Attribute::float(1.5)), "1.5");
        assert_eq!(
            print_attribute(&ctx, &Attribute::String("hi".into())),
            "\"hi\""
        );
        assert_eq!(
            print_attribute(&ctx, &Attribute::int_array([32, 8])),
            "[32, 8]"
        );
        assert_eq!(
            print_attribute(&ctx, &Attribute::SymbolRef(Symbol::new("f"))),
            "@f"
        );
    }

    #[test]
    fn prints_nested_regions() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let outer = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(body, outer);
        let region = ctx.op(outer).regions()[0];
        let inner = ctx.append_block(region, &[]);
        let mut b = OpBuilder::at_end(&mut ctx, inner);
        b.op("test.inner").build();
        let text = print_op(&ctx, module);
        assert!(text.contains("\"test.wrap\"() ({"), "got:\n{text}");
        assert!(text.contains("\"test.inner\"()"), "got:\n{text}");
    }

    #[test]
    fn operands_defined_outside_the_printed_subtree_are_unnumbered() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let v = b.const_index(4);
        let user = b.op("test.use").operand(v).build();
        assert_eq!(
            print_op(&ctx, user),
            "\"test.use\"(%<unnumbered>) : (index) -> ()\n"
        );
    }

    #[test]
    fn a_stale_id_in_a_reused_slot_is_unnumbered() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        // Free a value's slot, then let a numbered value take it over.
        let index = ctx.index_type();
        let stale = ctx.create_op(Location::unknown(), "test.def", vec![], [index], vec![], 0);
        let stale_value = ctx.op(stale).results()[0];
        ctx.erase_op(stale);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let bound = b.const_index(8);
        assert_eq!(bound.index(), stale_value.index(), "the slot is reused");
        assert_ne!(bound.generation(), stale_value.generation());
        let step = b.const_index(1);
        let for_op = b
            .op("scf.for")
            .operands([bound, bound, step])
            .regions(1)
            .build();
        let region = ctx.op(for_op).regions()[0];
        ctx.append_block(region, &[index]);
        // A dangling operand: the stale id in the same slot as `bound`.
        ctx.ops[for_op].operands[0] = stale_value;
        let text = print_op(&ctx, module);
        assert!(
            text.contains("scf.for %2 = %<unnumbered> to %0 step %1 {"),
            "got:\n{text}"
        );
    }

    #[test]
    fn successors_outside_the_printed_subtree_are_unknown() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let wrap = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(body, wrap);
        let region = ctx.op(wrap).regions()[0];
        let entry = ctx.append_block(region, &[]);
        let target = ctx.append_block(region, &[]);
        let br = OpBuilder::at_end(&mut ctx, entry).op("cf.br").build();
        ctx.set_successors(br, vec![target]);
        OpBuilder::at_end(&mut ctx, target).op("test.done").build();
        assert!(
            print_op(&ctx, module).contains("\"cf.br\"()[^bb2] : () -> ()"),
            "the whole module numbers the target"
        );
        assert_eq!(print_op(&ctx, br), "\"cf.br\"()[^<?>] : () -> ()\n");
    }
}
