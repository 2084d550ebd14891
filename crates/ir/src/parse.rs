//! Textual IR parsing.
//!
//! Accepts the forms produced by [`crate::print`]: the generic operation
//! syntax for any operation, plus custom syntax for `module`, `func.func`,
//! `transform.named_sequence`, `arith.constant`, `func.return`, `scf.yield`
//! and `scf.for`.
//!
//! Tokens borrow from the source: names and numbers are slices of it, and
//! a string literal is one unless it holds an escape. A token carries only
//! its line and column; they become a [`Location`], sharing one file-name
//! `Arc` per parse, for an op or a diagnostic. Ops, types and array
//! attributes nest at most [`MAX_NESTING`] levels deep, so deeply nested
//! text is a diagnostic rather than a stack overflow.

use crate::attrs::{Attribute, FloatVal};
use crate::ir::{BlockId, Context, OpId, OperandList, RegionId, ValueId};
use crate::types::{Extent, TypeId, TypeKind};
use std::borrow::Cow;
use std::collections::HashMap;
use td_support::{Diagnostic, InlineVec, Location, Symbol};

/// How deeply ops, types and array attributes may nest in one another.
/// The parser, and the printer, verifier and walks that see the IR later,
/// recurse once per level; this bound keeps all of them well inside a
/// 2 MiB thread stack.
const MAX_NESTING: usize = 256;

/// The parser's result: the diagnostic is boxed so that results stay a
/// word or two wide on the recursive paths.
type Parsed<T> = Result<T, Box<Diagnostic>>;

/// Parses a top-level module (either `module { ... }` or a bare list of
/// operations wrapped in an implicit module).
///
/// # Errors
/// Returns a [`Diagnostic`] pointing at the offending token on syntax or
/// scoping errors.
pub fn parse_module(ctx: &mut Context, source: &str) -> Result<OpId, Diagnostic> {
    Parser::new(ctx, source)
        .parse_top_level()
        .map_err(|err| *err)
}

/// Parses a single type from `source` (useful for tests and tools).
///
/// # Errors
/// Returns a [`Diagnostic`] on syntax errors or trailing input.
pub fn parse_type_str(ctx: &mut Context, source: &str) -> Result<TypeId, Diagnostic> {
    let mut parser = Parser::new(ctx, source);
    let ty = parser.parse_type().map_err(|err| *err)?;
    parser.expect_eof().map_err(|err| *err)?;
    Ok(ty)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    ValueId(&'s str),
    BlockId(&'s str),
    AtId(&'s str),
    /// A string literal's contents; owned only if it held an escape.
    Str(Cow<'s, str>),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Less,
    Greater,
    Comma,
    Colon,
    Equal,
    Arrow,
    Bang,
    Question,
    Eof,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::ValueId(s) => write!(f, "`%{s}`"),
            Tok::BlockId(s) => write!(f, "`^{s}`"),
            Tok::AtId(s) => write!(f, "`@{s}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(v) => write!(f, "`{v}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Less => f.write_str("`<`"),
            Tok::Greater => f.write_str("`>`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Equal => f.write_str("`=`"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Question => f.write_str("`?`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A 1-based line and byte column in the source.
#[derive(Clone, Copy, Debug)]
struct Pos {
    line: u32,
    col: u32,
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
    /// Byte offset at which the current line starts.
    line_start: usize,
    /// The file name every location of this parse shares.
    file: Symbol,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            file: Symbol::new("<input>"),
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.pos - self.line_start) as u32 + 1,
        }
    }

    fn location(&self, pos: Pos) -> Location {
        Location::File {
            file: self.file,
            line: pos.line,
            column: pos.col,
        }
    }

    fn error(&self, pos: Pos, message: impl Into<String>) -> Box<Diagnostic> {
        Box::new(Diagnostic::error(self.location(pos), message))
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek_char()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    fn peek_char(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek_char_at(&self, offset: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + offset).copied()
    }

    /// Consumes the longest run of bytes matching `pred`, which must not
    /// match a newline.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'s str {
        let start = self.pos;
        while self.peek_char().is_some_and(&pred) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_char() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek_char_at(1) == Some(b'/') => {
                    self.take_while(|c| c != b'\n');
                }
                _ => break,
            }
        }
    }

    fn is_ident_start(c: u8) -> bool {
        c.is_ascii_alphabetic() || c == b'_'
    }

    fn is_ident_cont(c: u8) -> bool {
        c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'$'
    }

    fn lex_number(&mut self, negative: bool) -> Parsed<Tok<'s>> {
        let start = self.pos;
        self.take_while(|c| c.is_ascii_digit());
        let is_float = self.peek_char() == Some(b'.')
            && self.peek_char_at(1).is_some_and(|c| c.is_ascii_digit());
        if is_float {
            self.pos += 1;
            self.take_while(|c| c.is_ascii_digit() || matches!(c, b'e' | b'E' | b'-' | b'+'));
            let text = &self.src[start..self.pos];
            let value: f64 = text
                .parse()
                .map_err(|_| self.error(self.here(), format!("invalid float `{text}`")))?;
            Ok(Tok::Float(if negative { -value } else { value }))
        } else {
            let text = &self.src[start..self.pos];
            // Parse via i128 so `-9223372036854775808` (i64::MIN, used as
            // the dynamic-marker sentinel) round-trips.
            let wide: i128 = text
                .parse()
                .map_err(|_| self.error(self.here(), format!("invalid integer `{text}`")))?;
            let wide = if negative { -wide } else { wide };
            let value = i64::try_from(wide)
                .map_err(|_| self.error(self.here(), format!("integer `{text}` out of range")))?;
            Ok(Tok::Int(value))
        }
    }

    /// Lexes a string literal's contents after its opening quote.
    fn lex_string(&mut self, start: Pos) -> Parsed<Tok<'s>> {
        // Contents are borrowed up to the first escape; from there on they
        // are copied run by run, each run ending before a backslash.
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&self.src[run..self.pos - 1]);
                    text.push(match self.bump() {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        other => {
                            return Err(self.error(
                                self.here(),
                                format!("invalid escape `\\{:?}`", other.map(|c| c as char)),
                            ))
                        }
                    });
                    run = self.pos;
                }
                Some(_) => {}
                None => return Err(self.error(start, "unterminated string literal")),
            }
        }
        let tail = &self.src[run..self.pos - 1];
        Ok(Tok::Str(match owned {
            None => Cow::Borrowed(tail),
            Some(mut text) => {
                text.push_str(tail);
                Cow::Owned(text)
            }
        }))
    }

    fn next_token(&mut self) -> Parsed<(Tok<'s>, Pos)> {
        self.skip_trivia();
        let pos = self.here();
        let Some(c) = self.peek_char() else {
            return Ok((Tok::Eof, pos));
        };
        let punct = match c {
            b'(' => Some(Tok::LParen),
            b')' => Some(Tok::RParen),
            b'{' => Some(Tok::LBrace),
            b'}' => Some(Tok::RBrace),
            b'[' => Some(Tok::LBracket),
            b']' => Some(Tok::RBracket),
            b'<' => Some(Tok::Less),
            b'>' => Some(Tok::Greater),
            b',' => Some(Tok::Comma),
            b':' => Some(Tok::Colon),
            b'=' => Some(Tok::Equal),
            b'!' => Some(Tok::Bang),
            b'?' => Some(Tok::Question),
            _ => None,
        };
        if let Some(tok) = punct {
            self.pos += 1;
            return Ok((tok, pos));
        }
        let tok = match c {
            b'-' => {
                self.pos += 1;
                if self.peek_char() == Some(b'>') {
                    self.pos += 1;
                    Tok::Arrow
                } else if self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                    self.lex_number(true)?
                } else {
                    return Err(self.error(pos, "unexpected `-`"));
                }
            }
            b'%' => {
                self.pos += 1;
                Tok::ValueId(self.lex_suffix_id(pos)?)
            }
            b'^' => {
                self.pos += 1;
                Tok::BlockId(self.lex_suffix_id(pos)?)
            }
            b'@' => {
                self.pos += 1;
                Tok::AtId(self.lex_suffix_id(pos)?)
            }
            b'"' => {
                self.pos += 1;
                self.lex_string(pos)?
            }
            c if c.is_ascii_digit() => self.lex_number(false)?,
            c if Self::is_ident_start(c) => Tok::Ident(self.take_while(Self::is_ident_cont)),
            other => {
                return Err(self.error(pos, format!("unexpected character `{}`", other as char)))
            }
        };
        Ok((tok, pos))
    }

    fn lex_suffix_id(&mut self, pos: Pos) -> Parsed<&'s str> {
        // Suffix ids allow digits at the start (`%0`, `^bb1`).
        let id = self.take_while(Self::is_ident_cont);
        if id.is_empty() {
            return Err(self.error(pos, "expected identifier"));
        }
        Ok(id)
    }

    /// If the text ahead is `<…>` holding no nested `<`, `(`, `!`, quote,
    /// comment or line break — a shape over a scalar element — the offset
    /// just past its `>`.
    fn scalar_shaped_end(&self) -> Option<usize> {
        let bytes = self.src.as_bytes();
        if bytes.get(self.pos) != Some(&b'<') {
            return None;
        }
        for (i, &c) in bytes[self.pos + 1..].iter().enumerate() {
            match c {
                b'>' => return Some(self.pos + i + 2),
                b'<' | b'(' | b'!' | b'"' | b'/' | b'\n' => return None,
                _ => {}
            }
        }
        None
    }

    /// Char-level helper: lexes a dimension list like `4x?x` and stops just
    /// before the element type. Must be called with no buffered token.
    fn lex_dimensions(&mut self) -> Vec<Extent> {
        self.skip_trivia();
        let mut dims = Vec::new();
        loop {
            let start = self.pos;
            let extent = if self.peek_char() == Some(b'?') {
                self.pos += 1;
                Some(Extent::Dynamic)
            } else if self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                // An extent past i64 is left to the token lexer to reject.
                let digits = self.take_while(|c| c.is_ascii_digit());
                digits
                    .bytes()
                    .try_fold(0i64, |n, c| {
                        n.checked_mul(10)?.checked_add(i64::from(c - b'0'))
                    })
                    .map(Extent::Static)
            } else {
                None
            };
            match (extent, self.peek_char()) {
                (Some(e), Some(b'x')) => {
                    self.pos += 1;
                    dims.push(e);
                }
                _ => {
                    // Not a dimension; rewind and let normal lexing resume.
                    self.pos = start;
                    break;
                }
            }
        }
        dims
    }
}

/// Per-region parsing state: block name resolution with forward references.
#[derive(Default)]
struct RegionState<'s> {
    blocks_by_name: HashMap<&'s str, BlockId>,
    textual_order: Vec<BlockId>,
}

struct Parser<'c, 's> {
    ctx: &'c mut Context,
    lexer: Lexer<'s>,
    peeked: Option<(Tok<'s>, Pos)>,
    /// Every `%name` in scope, bound to its innermost definition and the
    /// depth of the scope that made it.
    values: HashMap<&'s str, (ValueId, usize)>,
    /// What each definition in an open scope replaced (`None`: nothing),
    /// restored when its scope closes.
    shadowed: Vec<(&'s str, Option<(ValueId, usize)>)>,
    /// `shadowed.len()` at the start of each open scope.
    scopes: Vec<usize>,
    /// Names awaiting their values (an op's results, its operands, a
    /// function's arguments), used as a stack: a nested op's names sit
    /// above its parent's and are popped before the parent reads its own.
    names: Vec<(&'s str, Pos)>,
    /// Successor references awaiting resolution by the enclosing region.
    pending_successors: Vec<(OpId, Vec<&'s str>)>,
    /// How many ops, types and array attributes enclose the current token.
    depth: usize,
    /// `tensor<…>` / `memref<…>` texts over a scalar element, by their
    /// exact bytes, as already parsed: a module repeats a few shapes.
    shaped_types: HashMap<&'s str, TypeId>,
}

impl<'c, 's> Parser<'c, 's> {
    fn new(ctx: &'c mut Context, source: &'s str) -> Self {
        Parser {
            ctx,
            lexer: Lexer::new(source),
            peeked: None,
            values: HashMap::new(),
            shadowed: Vec::new(),
            scopes: Vec::new(),
            names: Vec::new(),
            pending_successors: Vec::new(),
            depth: 0,
            shaped_types: HashMap::new(),
        }
    }

    // ----- token plumbing --------------------------------------------------

    fn next(&mut self) -> Parsed<(Tok<'s>, Pos)> {
        if let Some(t) = self.peeked.take() {
            return Ok(t);
        }
        self.lexer.next_token()
    }

    fn peek(&mut self) -> Parsed<&Tok<'s>> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_token()?);
        }
        Ok(&self.peeked.as_ref().expect("just filled").0)
    }

    fn location(&self, pos: Pos) -> Location {
        self.lexer.location(pos)
    }

    fn error(&self, pos: Pos, message: impl Into<String>) -> Box<Diagnostic> {
        self.lexer.error(pos, message)
    }

    fn expect(&mut self, tok: Tok<'_>) -> Parsed<Pos> {
        let (t, pos) = self.next()?;
        if t == tok {
            Ok(pos)
        } else {
            Err(self.error(pos, format!("expected {tok}, found {t}")))
        }
    }

    fn eat(&mut self, tok: &Tok<'_>) -> Parsed<bool> {
        if self.peek()? == tok {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_ident(&mut self) -> Parsed<(&'s str, Pos)> {
        let (t, pos) = self.next()?;
        match t {
            Tok::Ident(s) => Ok((s, pos)),
            other => Err(self.error(pos, format!("expected identifier, found {other}"))),
        }
    }

    fn expect_eof(&mut self) -> Parsed<()> {
        let (t, pos) = self.next()?;
        if t == Tok::Eof {
            Ok(())
        } else {
            Err(self.error(pos, format!("expected end of input, found {t}")))
        }
    }

    /// Runs `parse` one nesting level deeper, or fails at the bound.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// An error at `op`'s location.
    fn op_error(&self, op: OpId, message: String) -> Box<Diagnostic> {
        Box::new(Diagnostic::error(self.ctx.op(op).location.clone(), message))
    }

    #[cold]
    fn too_deep(&mut self) -> Box<Diagnostic> {
        if let Err(err) = self.peek() {
            return err;
        }
        let pos = self.peeked.as_ref().expect("just peeked").1;
        self.error(pos, format!("nesting deeper than {MAX_NESTING} levels"))
    }

    // ----- scoping ---------------------------------------------------------

    fn push_scope(&mut self) {
        self.scopes.push(self.shadowed.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("a scope is open");
        for (name, previous) in self.shadowed.drain(start..).rev() {
            match previous {
                Some(binding) => self.values.insert(name, binding),
                None => self.values.remove(name),
            };
        }
    }

    fn define_value(&mut self, name: &'s str, value: ValueId, pos: Pos) -> Parsed<()> {
        let depth = self.scopes.len();
        let previous = self.values.insert(name, (value, depth));
        if previous.is_some_and(|(_, d)| d == depth) {
            return Err(self.error(pos, format!("redefinition of value %{name}")));
        }
        self.shadowed.push((name, previous));
        Ok(())
    }

    fn lookup_value(&self, name: &str, pos: Pos) -> Parsed<ValueId> {
        match self.values.get(name) {
            Some(&(v, _)) => Ok(v),
            None => Err(self.error(pos, format!("use of undefined value %{name}"))),
        }
    }

    /// Resolves the names pushed since `base` and pops them.
    fn take_uses(&mut self, base: usize) -> Parsed<OperandList> {
        let values = self.names[base..]
            .iter()
            .map(|&(name, pos)| self.lookup_value(name, pos))
            .collect();
        self.names.truncate(base);
        values
    }

    // ----- types -----------------------------------------------------------

    fn parse_type(&mut self) -> Parsed<TypeId> {
        self.nested(Self::parse_type_unbounded)
    }

    fn parse_type_unbounded(&mut self) -> Parsed<TypeId> {
        let (tok, pos) = self.next()?;
        match tok {
            Tok::Ident(name) => self.parse_named_type(name, pos),
            Tok::LParen => {
                // Function type.
                let mut inputs = Vec::new();
                if !self.eat(&Tok::RParen)? {
                    loop {
                        inputs.push(self.parse_type()?);
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                }
                self.expect(Tok::Arrow)?;
                let results = self.parse_result_types()?;
                Ok(self.ctx.intern_type(TypeKind::Function { inputs, results }))
            }
            Tok::Bang => {
                let (name, _) = self.expect_ident()?;
                self.parse_dialect_type(name)
            }
            other => Err(self.error(pos, format!("expected type, found {other}"))),
        }
    }

    /// Parses the type named `name`, reusing an earlier parse of the same
    /// shaped-type text. A reuse skips the element's nesting check, so it
    /// is taken only where that check would pass.
    fn parse_named_type(&mut self, name: &'s str, pos: Pos) -> Parsed<TypeId> {
        if matches!(name, "memref" | "tensor") && self.depth < MAX_NESTING {
            // The ident was just lexed, so it ends at the lexer's position.
            let start = self.lexer.pos - name.len();
            if let Some(end) = self.lexer.scalar_shaped_end() {
                let text = &self.lexer.src[start..end];
                if let Some(&ty) = self.shaped_types.get(text) {
                    self.lexer.pos = end;
                    return Ok(ty);
                }
                let ty = self.parse_named_type_uncached(name, pos)?;
                if self.lexer.pos == end {
                    self.shaped_types.insert(text, ty);
                }
                return Ok(ty);
            }
        }
        self.parse_named_type_uncached(name, pos)
    }

    fn parse_named_type_uncached(&mut self, name: &str, pos: Pos) -> Parsed<TypeId> {
        match name {
            "index" => Ok(self.ctx.index_type()),
            "f32" => Ok(self.ctx.f32_type()),
            "f64" => Ok(self.ctx.f64_type()),
            "none" => Ok(self.ctx.intern_type(TypeKind::None)),
            "memref" => {
                self.expect(Tok::Less)?;
                assert!(
                    self.peeked.is_none(),
                    "dimension lexing needs an empty lookahead"
                );
                let shape = self.lexer.lex_dimensions();
                let element = self.parse_type()?;
                let (mut offset, mut strides) = (Extent::Static(0), Vec::new());
                if self.eat(&Tok::Comma)? {
                    let (kw, kw_pos) = self.expect_ident()?;
                    if kw != "strided" {
                        return Err(self.error(kw_pos, "expected `strided` layout"));
                    }
                    self.expect(Tok::Less)?;
                    self.expect(Tok::LBracket)?;
                    if !self.eat(&Tok::RBracket)? {
                        loop {
                            strides.push(self.parse_extent()?);
                            if !self.eat(&Tok::Comma)? {
                                break;
                            }
                        }
                        self.expect(Tok::RBracket)?;
                    }
                    self.expect(Tok::Comma)?;
                    let (kw, kw_pos) = self.expect_ident()?;
                    if kw != "offset" {
                        return Err(self.error(kw_pos, "expected `offset`"));
                    }
                    self.expect(Tok::Colon)?;
                    offset = self.parse_extent()?;
                    self.expect(Tok::Greater)?;
                }
                self.expect(Tok::Greater)?;
                Ok(self.ctx.intern_type(TypeKind::MemRef {
                    shape,
                    element,
                    offset,
                    strides,
                }))
            }
            "tensor" => {
                self.expect(Tok::Less)?;
                assert!(
                    self.peeked.is_none(),
                    "dimension lexing needs an empty lookahead"
                );
                let shape = self.lexer.lex_dimensions();
                let element = self.parse_type()?;
                self.expect(Tok::Greater)?;
                Ok(self.ctx.intern_type(TypeKind::Tensor { shape, element }))
            }
            _ => {
                if let Some(width_text) = name.strip_prefix('i') {
                    if let Ok(width) = width_text.parse::<u32>() {
                        return Ok(self.ctx.intern_type(TypeKind::Integer(width)));
                    }
                }
                Err(self.error(pos, format!("unknown type `{name}`")))
            }
        }
    }

    fn parse_dialect_type(&mut self, name: &str) -> Parsed<TypeId> {
        match name {
            "llvm.ptr" => Ok(self.ctx.intern_type(TypeKind::LlvmPtr)),
            "llvm.struct" => {
                self.expect(Tok::Less)?;
                self.expect(Tok::LParen)?;
                let mut fields = Vec::new();
                if !self.eat(&Tok::RParen)? {
                    loop {
                        fields.push(self.parse_type()?);
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                }
                self.expect(Tok::Greater)?;
                Ok(self.ctx.intern_type(TypeKind::LlvmStruct(fields)))
            }
            "transform.any_op" => Ok(self.ctx.intern_type(TypeKind::TransformAnyOp)),
            "transform.param" => Ok(self.ctx.intern_type(TypeKind::TransformParam)),
            "transform.any_value" => Ok(self.ctx.intern_type(TypeKind::TransformAnyValue)),
            "transform.op" => {
                self.expect(Tok::Less)?;
                let (t, spos) = self.next()?;
                let opname = match t {
                    Tok::Str(s) => s,
                    other => {
                        return Err(
                            self.error(spos, format!("expected quoted op name, found {other}"))
                        )
                    }
                };
                self.expect(Tok::Greater)?;
                Ok(self
                    .ctx
                    .intern_type(TypeKind::TransformOp(Symbol::new(&opname))))
            }
            _ => Ok(self.ctx.intern_type(TypeKind::Opaque(Symbol::new(name)))),
        }
    }

    fn parse_extent(&mut self) -> Parsed<Extent> {
        let (t, pos) = self.next()?;
        match t {
            Tok::Int(v) => Ok(Extent::Static(v)),
            Tok::Question => Ok(Extent::Dynamic),
            other => Err(self.error(pos, format!("expected extent, found {other}"))),
        }
    }

    /// `T` or `(T, …)`, into a `Vec` (function types) or an inline list
    /// (an op's results, which allocates nothing for one type).
    fn parse_result_types<C: Default + Extend<TypeId>>(&mut self) -> Parsed<C> {
        let mut out = C::default();
        if self.peek()? == &Tok::LParen {
            self.next()?;
            if self.eat(&Tok::RParen)? {
                return Ok(out);
            }
            loop {
                out.extend([self.parse_type()?]);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            // `(T) -> U` style function type written in result position?
            // Not supported; a single parenthesized list is just the list.
            Ok(out)
        } else {
            out.extend([self.parse_type()?]);
            Ok(out)
        }
    }

    // ----- attributes --------------------------------------------------------

    fn parse_attribute(&mut self) -> Parsed<Attribute> {
        self.nested(Self::parse_attribute_unbounded)
    }

    fn parse_attribute_unbounded(&mut self) -> Parsed<Attribute> {
        match *self.peek()? {
            Tok::Int(v) => {
                self.next()?;
                Ok(Attribute::Int(v))
            }
            Tok::Float(v) => {
                self.next()?;
                Ok(Attribute::float(v))
            }
            Tok::Str(_) => match self.next()?.0 {
                Tok::Str(s) => Ok(Attribute::String(s.into_owned())),
                _ => unreachable!("peeked a string"),
            },
            Tok::AtId(s) => {
                self.next()?;
                Ok(Attribute::SymbolRef(Symbol::new(s)))
            }
            Tok::LBracket => {
                self.next()?;
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket)? {
                    loop {
                        items.push(self.parse_attribute()?);
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                }
                Ok(Attribute::Array(items))
            }
            Tok::Ident("true") => {
                self.next()?;
                Ok(Attribute::Bool(true))
            }
            Tok::Ident("false") => {
                self.next()?;
                Ok(Attribute::Bool(false))
            }
            Tok::Ident("unit") => {
                self.next()?;
                Ok(Attribute::Unit)
            }
            Tok::Ident("dense") => self.parse_dense(),
            _ => {
                let ty = self.parse_type()?;
                Ok(Attribute::Type(ty))
            }
        }
    }

    fn parse_dense(&mut self) -> Parsed<Attribute> {
        self.next()?; // `dense`
        self.expect(Tok::Less)?;
        let (kw, kw_pos) = self.expect_ident()?;
        if kw != "shape" {
            return Err(self.error(kw_pos, "expected `shape`"));
        }
        self.expect(Tok::Equal)?;
        self.expect(Tok::LBracket)?;
        let mut shape = Vec::new();
        if !self.eat(&Tok::RBracket)? {
            loop {
                let (t, pos) = self.next()?;
                match t {
                    Tok::Int(v) => shape.push(v),
                    other => return Err(self.error(pos, format!("expected int, found {other}"))),
                }
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        self.expect(Tok::Comma)?;
        let (kw, kw_pos) = self.expect_ident()?;
        if kw != "values" {
            return Err(self.error(kw_pos, "expected `values`"));
        }
        self.expect(Tok::Equal)?;
        self.expect(Tok::LBracket)?;
        let mut data = Vec::new();
        if !self.eat(&Tok::RBracket)? {
            loop {
                let (t, pos) = self.next()?;
                match t {
                    Tok::Int(v) => data.push(FloatVal(v as f64)),
                    Tok::Float(v) => data.push(FloatVal(v)),
                    other => return Err(self.error(pos, format!("expected number, found {other}"))),
                }
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        self.expect(Tok::Greater)?;
        Ok(Attribute::DenseF64 { shape, data })
    }

    fn parse_attr_dict(&mut self) -> Parsed<Vec<(Symbol, Attribute)>> {
        self.expect(Tok::LBrace)?;
        let mut attrs = Vec::new();
        if self.eat(&Tok::RBrace)? {
            return Ok(attrs);
        }
        loop {
            let (t, pos) = self.next()?;
            let key = match t {
                Tok::Ident(s) => Symbol::new(s),
                Tok::Str(s) => Symbol::new(&s),
                other => {
                    return Err(self.error(pos, format!("expected attribute name, found {other}")))
                }
            };
            let value = if self.eat(&Tok::Equal)? {
                self.parse_attribute()?
            } else {
                Attribute::Unit
            };
            attrs.push((key, value));
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(attrs)
    }

    // ----- top level -----------------------------------------------------
    //
    // Ops nest through `parse_op` → form → `parse_block_ops` /
    // `parse_regions` → `parse_op`. The functions on that cycle hand all
    // other work to helpers, so each level of nesting costs the stack only
    // their few locals, debug builds included.

    fn parse_top_level(&mut self) -> Parsed<OpId> {
        if *self.peek()? == Tok::Ident("module") {
            let module = self.parse_module_op()?;
            self.expect_eof()?;
            return Ok(module);
        }
        // Implicit module around a list of ops.
        let module = self
            .ctx
            .create_module(self.location(Pos { line: 1, col: 1 }));
        let body = self.ctx.sole_block(module, 0);
        while self.peek()? != &Tok::Eof {
            let op = self.parse_op()?;
            self.ctx.append_op(body, op);
        }
        Ok(module)
    }

    /// Parses ops into `block` up to (not including) its closing `}`.
    fn parse_block_ops(&mut self, block: BlockId) -> Parsed<()> {
        while self.peek()? != &Tok::RBrace {
            let op = self.parse_op()?;
            self.ctx.append_op(block, op);
        }
        Ok(())
    }

    /// Parses `{ ops }` into `block` in a scope of its own, which `define`
    /// fills first.
    fn parse_scoped_body(
        &mut self,
        block: BlockId,
        define: impl FnOnce(&mut Self) -> Parsed<()>,
    ) -> Parsed<()> {
        self.expect(Tok::LBrace)?;
        self.push_scope();
        define(self)?;
        self.parse_block_ops(block)?;
        self.expect(Tok::RBrace)?;
        self.pop_scope();
        Ok(())
    }

    fn parse_module_op(&mut self) -> Parsed<OpId> {
        let (module, body) = self.parse_module_head()?;
        self.parse_scoped_body(body, |_| Ok(()))?;
        Ok(module)
    }

    /// `module @name?`: creates the module and its body block.
    fn parse_module_head(&mut self) -> Parsed<(OpId, BlockId)> {
        let (_, pos) = self.next()?; // `module`
        let mut attrs = Vec::new();
        if let Tok::AtId(name) = *self.peek()? {
            self.next()?;
            attrs.push((Symbol::new("sym_name"), Attribute::String(name.to_owned())));
        }
        let module = self.ctx.create_op(
            self.location(pos),
            "builtin.module",
            vec![],
            vec![],
            attrs,
            1,
        );
        let region = self.ctx.op(module).regions()[0];
        let body = self.ctx.append_block(region, &[]);
        Ok((module, body))
    }

    /// Parses one operation (custom or generic form), returning a detached op.
    fn parse_op(&mut self) -> Parsed<OpId> {
        self.nested(Self::parse_op_unbounded)
    }

    fn parse_op_unbounded(&mut self) -> Parsed<OpId> {
        let base = self.names.len();
        self.parse_result_names()?;
        let op = match *self.peek()? {
            Tok::Str(_) => self.parse_generic_op()?,
            Tok::Ident("module") => self.parse_module_op()?,
            Tok::Ident(name @ ("func.func" | "transform.named_sequence")) => {
                self.parse_function_like(name)?
            }
            Tok::Ident("arith.constant") => self.parse_arith_constant()?,
            Tok::Ident(name @ ("func.return" | "scf.yield")) => {
                self.parse_bare_with_operands(name)?
            }
            Tok::Ident("scf.for") => self.parse_scf_for()?,
            _ => return Err(self.not_an_op()),
        };
        self.bind_results(op, base)?;
        Ok(op)
    }

    /// Pushes an op's optional `%a, %b =` result names onto `names`.
    fn parse_result_names(&mut self) -> Parsed<()> {
        let base = self.names.len();
        while let Tok::ValueId(name) = *self.peek()? {
            let (_, pos) = self.next()?;
            self.names.push((name, pos));
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        if self.names.len() > base {
            self.expect(Tok::Equal)?;
        }
        Ok(())
    }

    /// Binds the result names pushed since `base` to `op`'s results.
    fn bind_results(&mut self, op: OpId, base: usize) -> Parsed<()> {
        let bound = self.names.len() - base;
        let results = self.ctx.op(op).results().len();
        if bound > 0 && bound != results {
            return Err(self.error(
                self.names[base].1,
                format!("operation produces {results} results but {bound} names were bound"),
            ));
        }
        for i in 0..bound {
            let (name, pos) = self.names[base + i];
            let value = self.ctx.op(op).results()[i];
            self.define_value(name, value, pos)?;
        }
        self.names.truncate(base);
        Ok(())
    }

    /// The error for a token that cannot start an op; consumes it.
    #[cold]
    fn not_an_op(&mut self) -> Box<Diagnostic> {
        match self.next() {
            Ok((Tok::Ident(name), pos)) => self.error(
                pos,
                format!("`{name}` has no custom syntax; use the generic form \"{name}\"(...)"),
            ),
            Ok((other, pos)) => self.error(pos, format!("expected operation, found {other}")),
            Err(err) => err,
        }
    }

    fn parse_generic_op(&mut self) -> Parsed<OpId> {
        let (op, has_regions, successors) = self.parse_generic_head()?;
        if has_regions {
            self.parse_regions(op)?;
        }
        self.parse_generic_tail(op)?;
        // Successors refer to sibling blocks, so the enclosing region body
        // resolves them once it has seen all of its blocks.
        if !successors.is_empty() {
            self.pending_successors.push((op, successors));
        }
        Ok(op)
    }

    /// `"name"(%operands)[^successors]`: creates the op; says whether
    /// regions follow and which blocks are its successors.
    fn parse_generic_head(&mut self) -> Parsed<(OpId, bool, Vec<&'s str>)> {
        let (t, pos) = self.next()?;
        let Tok::Str(name) = t else {
            unreachable!("caller checked")
        };
        self.expect(Tok::LParen)?;
        let base = self.names.len();
        if !self.eat(&Tok::RParen)? {
            loop {
                let (t, opos) = self.next()?;
                match t {
                    Tok::ValueId(n) => self.names.push((n, opos)),
                    other => {
                        return Err(self.error(opos, format!("expected operand, found {other}")))
                    }
                }
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        // Successors.
        let mut successors = Vec::new();
        if self.eat(&Tok::LBracket)? {
            loop {
                let (t, spos) = self.next()?;
                match t {
                    Tok::BlockId(n) => successors.push(n),
                    other => {
                        return Err(
                            self.error(spos, format!("expected successor block, found {other}"))
                        )
                    }
                }
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        let has_regions = self.peek()? == &Tok::LParen;
        // Resolve operands before creating the op.
        let operands = self.take_uses(base)?;
        let op = self.ctx.create_op(
            self.location(pos),
            name.as_ref(),
            operands,
            vec![],
            vec![],
            0,
        );
        Ok((op, has_regions, successors))
    }

    /// `({…}, {…})`: the regions of a generic op.
    fn parse_regions(&mut self, op: OpId) -> Parsed<()> {
        self.next()?; // `(`
        loop {
            let region = self.ctx.regions.alloc(crate::ir::RegionData {
                blocks: Default::default(),
                parent: Some(op),
            });
            self.ctx.ops[op].regions.push(region);
            self.parse_region_body(region)?;
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(())
    }

    /// `{attrs}? : (operand types) -> result types`: checks the operand
    /// types and creates the results.
    fn parse_generic_tail(&mut self, op: OpId) -> Parsed<()> {
        if self.peek()? == &Tok::LBrace {
            let attrs = self.parse_attr_dict()?;
            self.ctx.ops[op].attributes = attrs;
        }
        self.expect(Tok::Colon)?;
        self.expect(Tok::LParen)?;
        let mut operand_types = InlineVec::<TypeId, 4>::new();
        if !self.eat(&Tok::RParen)? {
            loop {
                operand_types.push(self.parse_type()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Arrow)?;
        let result_types: InlineVec<TypeId, 1> = self.parse_result_types()?;
        let (name, operands) = (self.ctx.op(op).name, self.ctx.op(op).operands());
        if operand_types.len() != operands.len() {
            let message = format!(
                "operation `{name}` has {} operands but {} operand types",
                operands.len(),
                operand_types.len()
            );
            return Err(self.op_error(op, message));
        }
        for (i, (&v, &t)) in operands.iter().zip(&operand_types).enumerate() {
            if self.ctx.value_type(v) != t {
                let message = format!("operand #{i} of `{name}` has a mismatched type annotation");
                return Err(self.op_error(op, message));
            }
        }
        // Create result values now that we know their types.
        for (index, ty) in result_types.into_iter().enumerate() {
            let value = self.ctx.values.alloc(crate::ir::ValueData {
                ty,
                def: crate::ir::ValueDef::OpResult {
                    op,
                    index: index as u32,
                },
                uses: Default::default(),
            });
            self.ctx.ops[op].results.push(value);
        }
        Ok(())
    }

    fn parse_region_body(&mut self, region: RegionId) -> Parsed<()> {
        self.expect(Tok::LBrace)?;
        self.push_scope();
        let mut state = RegionState::default();
        let pending_before = self.pending_successors.len();
        // Entry block: implicit unless a header appears first.
        let mut current_block: Option<BlockId> = None;
        loop {
            match *self.peek()? {
                Tok::RBrace => break,
                Tok::BlockId(name) => {
                    current_block = Some(self.parse_block_header(region, &mut state, name)?);
                }
                _ => {
                    let block = *current_block.get_or_insert_with(|| {
                        let block = self.ctx.append_block(region, &[]);
                        state.textual_order.push(block);
                        block
                    });
                    let op = self.parse_op()?;
                    self.ctx.append_op(block, op);
                }
            }
        }
        self.expect(Tok::RBrace)?;
        self.finish_region(region, state, pending_before)?;
        self.pop_scope();
        Ok(())
    }

    /// `^name(%args: types):` — defines (or completes a forward reference
    /// to) the block and its arguments.
    fn parse_block_header(
        &mut self,
        region: RegionId,
        state: &mut RegionState<'s>,
        name: &'s str,
    ) -> Parsed<BlockId> {
        self.next()?;
        let block = match state.blocks_by_name.get(name) {
            Some(&b) => b,
            None => {
                let b = self.ctx.append_block(region, &[]);
                state.blocks_by_name.insert(name, b);
                b
            }
        };
        state.textual_order.push(block);
        if self.eat(&Tok::LParen)? && !self.eat(&Tok::RParen)? {
            loop {
                let (t, apos) = self.next()?;
                let arg_name = match t {
                    Tok::ValueId(n) => n,
                    other => {
                        return Err(
                            self.error(apos, format!("expected block argument, found {other}"))
                        )
                    }
                };
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                let arg = self.ctx.add_block_arg(block, ty);
                self.define_value(arg_name, arg, apos)?;
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Colon)?;
        Ok(block)
    }

    /// Resolves the successors recorded since `pending_before` against the
    /// region's blocks and restores the blocks' textual order.
    fn finish_region(
        &mut self,
        region: RegionId,
        state: RegionState<'s>,
        pending_before: usize,
    ) -> Parsed<()> {
        let pending: Vec<_> = self.pending_successors.drain(pending_before..).collect();
        for (op, names) in pending {
            let mut successors = Vec::with_capacity(names.len());
            for name in names {
                match state.blocks_by_name.get(name) {
                    Some(&b) => successors.push(b),
                    None => {
                        return Err(
                            self.op_error(op, format!("reference to undefined block ^{name}"))
                        )
                    }
                }
            }
            self.ctx.set_successors(op, successors);
        }
        self.ctx.regions[region].blocks = state.textual_order.into_iter().collect();
        Ok(())
    }

    /// Appends an op named `terminator` to `block` unless it already ends
    /// with one (the custom forms leave it implicit, as MLIR's do).
    fn ensure_terminator(&mut self, block: BlockId, terminator: &str) {
        let terminated = self
            .ctx
            .block(block)
            .last_op()
            .is_some_and(|last| self.ctx.op(last).name.as_str() == terminator);
        if !terminated {
            let op = self.ctx.create_op(
                Location::name(terminator),
                terminator,
                vec![],
                vec![],
                vec![],
                0,
            );
            self.ctx.append_op(block, op);
        }
    }

    // ----- custom forms ----------------------------------------------------

    fn parse_function_like(&mut self, opname: &str) -> Parsed<OpId> {
        let (op, arg_types, base) = self.parse_function_head(opname)?;
        if self.peek()? == &Tok::LBrace {
            let region = self.ctx.op(op).regions()[0];
            let block = self.ctx.append_block(region, &arg_types);
            self.parse_scoped_body(block, |this| this.bind_args(block, base))?;
            if opname == "transform.named_sequence" {
                self.ensure_terminator(block, "transform.yield");
            }
        }
        self.names.truncate(base);
        Ok(op)
    }

    /// `name @sym(%args: types) -> results`: creates the op; its argument
    /// names are left on `names` above the returned base.
    fn parse_function_head(&mut self, opname: &str) -> Parsed<(OpId, Vec<TypeId>, usize)> {
        let (_, pos) = self.next()?; // op name
        let (t, npos) = self.next()?;
        let sym = match t {
            Tok::AtId(s) => s,
            other => return Err(self.error(npos, format!("expected @symbol, found {other}"))),
        };
        self.expect(Tok::LParen)?;
        let base = self.names.len();
        let mut arg_types = Vec::new();
        if !self.eat(&Tok::RParen)? {
            loop {
                let (t, apos) = self.next()?;
                let name = match t {
                    Tok::ValueId(n) => n,
                    other => {
                        return Err(self.error(apos, format!("expected argument, found {other}")))
                    }
                };
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                self.names.push((name, apos));
                arg_types.push(ty);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let mut result_types = Vec::new();
        if self.eat(&Tok::Arrow)? {
            result_types = self.parse_result_types()?;
        }
        let fty = self.ctx.intern_type(TypeKind::Function {
            inputs: arg_types.clone(),
            results: result_types,
        });
        let attrs = vec![
            (Symbol::new("sym_name"), Attribute::String(sym.to_owned())),
            (Symbol::new("function_type"), Attribute::Type(fty)),
        ];
        let op = self
            .ctx
            .create_op(self.location(pos), opname, vec![], vec![], attrs, 1);
        Ok((op, arg_types, base))
    }

    /// Binds the argument names pushed since `base` to `block`'s arguments.
    fn bind_args(&mut self, block: BlockId, base: usize) -> Parsed<()> {
        for i in 0..self.names.len() - base {
            let (name, pos) = self.names[base + i];
            let value = self.ctx.block(block).args()[i];
            self.define_value(name, value, pos)?;
        }
        Ok(())
    }

    fn parse_arith_constant(&mut self) -> Parsed<OpId> {
        let (_, pos) = self.next()?;
        let value = self.parse_attribute()?;
        self.expect(Tok::Colon)?;
        let ty = self.parse_type()?;
        // Integer literal with a float type is a float constant.
        let value = match (&value, self.ctx.type_kind(ty)) {
            (Attribute::Int(v), TypeKind::F32 | TypeKind::F64) => Attribute::float(*v as f64),
            _ => value,
        };
        let op = self.ctx.create_op(
            self.location(pos),
            "arith.constant",
            vec![],
            [ty],
            vec![(Symbol::new("value"), value)],
            0,
        );
        Ok(op)
    }

    fn parse_bare_with_operands(&mut self, opname: &str) -> Parsed<OpId> {
        let (_, pos) = self.next()?;
        let base = self.names.len();
        while let Tok::ValueId(name) = *self.peek()? {
            let (_, opos) = self.next()?;
            self.names.push((name, opos));
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        let count = self.names.len() - base;
        if count > 0 {
            self.expect(Tok::Colon)?;
            for i in 0..count {
                let _ty = self.parse_type()?;
                if i + 1 < count {
                    self.expect(Tok::Comma)?;
                }
            }
        }
        let operands = self.take_uses(base)?;
        Ok(self
            .ctx
            .create_op(self.location(pos), opname, operands, vec![], vec![], 0))
    }

    fn parse_scf_for(&mut self) -> Parsed<OpId> {
        let (op, block, iv_name, iv_pos) = self.parse_scf_for_head()?;
        let iv = self.ctx.block(block).args()[0];
        self.parse_scoped_body(block, |this| this.define_value(iv_name, iv, iv_pos))?;
        self.ensure_terminator(block, "scf.yield");
        self.parse_trailing_attrs(op)?;
        Ok(op)
    }

    /// `scf.for %iv = %lb to %ub step %step`: creates the loop and its body
    /// block; returns the induction variable's name for the body's scope.
    fn parse_scf_for_head(&mut self) -> Parsed<(OpId, BlockId, &'s str, Pos)> {
        let (_, pos) = self.next()?;
        let (t, iv_pos) = self.next()?;
        let iv_name = match t {
            Tok::ValueId(n) => n,
            other => {
                return Err(self.error(
                    iv_pos,
                    format!("expected induction variable, found {other}"),
                ))
            }
        };
        self.expect(Tok::Equal)?;
        let lb = self.parse_value_use()?;
        let (kw, kwpos) = self.expect_ident()?;
        if kw != "to" {
            return Err(self.error(kwpos, "expected `to`"));
        }
        let ub = self.parse_value_use()?;
        let (kw, kwpos) = self.expect_ident()?;
        if kw != "step" {
            return Err(self.error(kwpos, "expected `step`"));
        }
        let step = self.parse_value_use()?;
        let op = self.ctx.create_op(
            self.location(pos),
            "scf.for",
            [lb, ub, step],
            vec![],
            vec![],
            1,
        );
        let region = self.ctx.op(op).regions()[0];
        let index = self.ctx.index_type();
        let block = self.ctx.append_block(region, &[index]);
        Ok((op, block, iv_name, iv_pos))
    }

    /// An optional attribute dict after a custom form's body.
    fn parse_trailing_attrs(&mut self, op: OpId) -> Parsed<()> {
        if self.peek()? == &Tok::LBrace {
            let attrs = self.parse_attr_dict()?;
            self.ctx.ops[op].attributes = attrs;
        }
        Ok(())
    }

    fn parse_value_use(&mut self) -> Parsed<ValueId> {
        let (t, pos) = self.next()?;
        match t {
            Tok::ValueId(n) => self.lookup_value(n, pos),
            other => Err(self.error(pos, format!("expected value, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::{print_op, print_type};

    fn roundtrip(source: &str) -> String {
        let mut ctx = Context::new();
        let module = parse_module(&mut ctx, source).expect("parse failed");
        print_op(&ctx, module)
    }

    #[test]
    fn parses_generic_ops() {
        let text = roundtrip(
            r#"module {
  %0 = "arith.constant"() {value = 4} : () -> index
  "test.use"(%0) : (index) -> ()
}"#,
        );
        assert!(text.contains("arith.constant 4 : index"), "got:\n{text}");
        assert!(
            text.contains("\"test.use\"(%0) : (index) -> ()"),
            "got:\n{text}"
        );
    }

    #[test]
    fn parses_func_and_scf_for() {
        let src = r#"module {
  func.func @fill(%m: memref<16xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 16 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = arith.constant 1.0 : f32
      "memref.store"(%v, %m, %i) : (f32, memref<16xf32>, index) -> ()
    }
    func.return
  }
}"#;
        let text = roundtrip(src);
        assert!(text.contains("func.func @fill"), "got:\n{text}");
        assert!(text.contains("scf.for"), "got:\n{text}");
        assert!(text.contains("memref.store"), "got:\n{text}");
    }

    #[test]
    fn parse_print_parse_is_stable() {
        let src = r#"module {
  func.func @f(%a: i32) -> i32 {
    %c = arith.constant 7 : i32
    %s = "arith.addi"(%a, %c) : (i32, i32) -> i32
    func.return %s : i32
  }
}"#;
        let mut ctx = Context::new();
        let m1 = parse_module(&mut ctx, src).unwrap();
        let p1 = print_op(&ctx, m1);
        let mut ctx2 = Context::new();
        let m2 = parse_module(&mut ctx2, &p1).unwrap();
        let p2 = print_op(&ctx2, m2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn parses_types() {
        let mut ctx = Context::new();
        for ty in [
            "i1",
            "i32",
            "index",
            "f64",
            "memref<4x4xf32>",
            "memref<4x?xf32, strided<[64, 1], offset: ?>>",
            "tensor<2x?xf32>",
            "!llvm.ptr",
            "!llvm.struct<(i64, !llvm.ptr)>",
            "!transform.any_op",
            "!transform.op<\"scf.for\">",
            "(i32, f32) -> i1",
        ] {
            let parsed = parse_type_str(&mut ctx, ty).unwrap_or_else(|e| panic!("{ty}: {e}"));
            assert_eq!(print_type(&ctx, parsed), ty);
        }
    }

    #[test]
    fn parses_blocks_and_successors() {
        let src = r#"module {
  func.func @cfg(%c: i1) {
    "cf.cond_br"(%c)[^then, ^else] : (i1) -> ()
  ^then:
    "cf.br"()[^merge] : () -> ()
  ^else:
    "cf.br"()[^merge] : () -> ()
  ^merge:
    func.return
  }
}"#;
        // func body with multiple blocks requires the generic form for the
        // function; use a generic wrapper instead.
        let src = src.replace(
            "func.func @cfg(%c: i1) {",
            "\"test.wrap\"() ({\n ^entry(%c: i1):",
        );
        let src = src.replace(
            "func.return\n  }",
            "\"test.done\"() : () -> ()\n  }) : () -> ()",
        );
        let mut ctx = Context::new();
        let module = parse_module(&mut ctx, &src).expect("parse failed");
        let text = print_op(&ctx, module);
        assert!(text.contains("[^bb"), "got:\n{text}");
    }

    #[test]
    fn undefined_value_is_an_error() {
        let mut ctx = Context::new();
        let err = parse_module(&mut ctx, r#""test.use"(%nope) : (i32) -> ()"#).unwrap_err();
        assert!(err.message().contains("undefined value"), "got: {err}");
    }

    #[test]
    fn redefinition_is_an_error() {
        let mut ctx = Context::new();
        let src = r#"
  %a = arith.constant 1 : i32
  %a = arith.constant 2 : i32
"#;
        let err = parse_module(&mut ctx, src).unwrap_err();
        assert!(err.message().contains("redefinition"), "got: {err}");
    }

    #[test]
    fn dense_attribute_round_trips() {
        let src = r#"module {
  %w = "tosa.const"() {value = dense<shape = [2, 2], values = [1.0, 2.0, 3.5, 4.0]>} : () -> tensor<2x2xf32>
  "test.use"(%w) : (tensor<2x2xf32>) -> ()
}"#;
        let text = roundtrip(src);
        assert!(
            text.contains("dense<shape = [2, 2], values = [1.0, 2.0, 3.5, 4.0]>"),
            "{text}"
        );
    }

    #[test]
    fn llvm_struct_and_ptr_round_trip() {
        let src = r#"module {
  %p = "test.src"() : () -> !llvm.ptr
  %s = "llvm.insertvalue"(%p) : (!llvm.ptr) -> !llvm.struct<(i64, !llvm.ptr)>
  "test.use"(%s) : (!llvm.struct<(i64, !llvm.ptr)>) -> ()
}"#;
        let text = roundtrip(src);
        assert!(text.contains("!llvm.struct<(i64, !llvm.ptr)>"), "{text}");
    }

    #[test]
    fn scf_for_trailing_attrs_round_trip() {
        let src = r#"module {
  %lo = arith.constant 0 : index
  %hi = arith.constant 8 : index
  %st = arith.constant 1 : index
  scf.for %i = %lo to %hi step %st {
    "test.body"(%i) : (index) -> ()
  } {tiled, tile_size = 8}
}"#;
        let text = roundtrip(src);
        assert!(text.contains("} {tiled, tile_size = 8}"), "{text}");
        // Second round trip is stable.
        let mut ctx = Context::new();
        let m = parse_module(&mut ctx, &text).unwrap();
        assert_eq!(print_op(&ctx, m), text);
    }

    #[test]
    fn nested_modules_parse() {
        let src = r#"module @outer {
  module @inner {
    %x = arith.constant 1 : i32
  }
}"#;
        let text = roundtrip(src);
        assert!(text.contains("module @outer"), "{text}");
        assert!(text.contains("module @inner"), "{text}");
    }

    #[test]
    fn negative_and_extreme_integers_round_trip() {
        let src = r#"module {
  %a = arith.constant -42 : i64
  %b = "test.marker"() {sentinel = -9223372036854775808, big = 9223372036854775807} : () -> i64
  "test.use"(%a, %b) : (i64, i64) -> ()
}"#;
        let text = roundtrip(src);
        assert!(text.contains("-42"), "{text}");
        assert!(text.contains("-9223372036854775808"), "{text}");
        assert!(text.contains("9223372036854775807"), "{text}");
    }

    #[test]
    fn error_locations_are_line_accurate() {
        let mut ctx = Context::new();
        let src =
            "module {\n  %a = arith.constant 1 : i32\n  %b = \"test.op\"(%zzz) : (i32) -> ()\n}";
        let err = parse_module(&mut ctx, src).unwrap_err();
        let loc = err.location().to_string();
        assert!(loc.contains(":3:"), "error should point at line 3: {loc}");
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let mut ctx = Context::new();
        let err = parse_module(&mut ctx, r#""test.op"() {s = "oops} : () -> ()"#).unwrap_err();
        assert!(err.message().contains("unterminated"), "{err}");
    }

    #[test]
    fn comments_are_ignored() {
        let src = r#"// leading comment
module {
  // a constant
  %a = arith.constant 1 : i32  // trailing
  "test.use"(%a) : (i32) -> ()
}"#;
        let text = roundtrip(src);
        assert!(text.contains("arith.constant 1 : i32"));
    }

    #[test]
    fn operand_type_mismatch_is_an_error() {
        let mut ctx = Context::new();
        let src = r#"
  %a = arith.constant 1 : i32
  "test.use"(%a) : (f32) -> ()
"#;
        let err = parse_module(&mut ctx, src).unwrap_err();
        assert!(err.message().contains("mismatched type"), "got: {err}");
    }

    #[test]
    fn string_literals_borrow_unless_escaped() {
        let src = "\"plain ü\" \"a\\\"b\\nc\\\\\"";
        let mut lexer = Lexer::new(src);
        let (plain, _) = lexer.next_token().unwrap();
        assert!(
            matches!(plain, Tok::Str(Cow::Borrowed("plain ü"))),
            "{plain:?}"
        );
        let (escaped, _) = lexer.next_token().unwrap();
        assert!(
            matches!(&escaped, Tok::Str(Cow::Owned(s)) if s == "a\"b\nc\\"),
            "{escaped:?}"
        );
        assert_eq!(lexer.next_token().unwrap().0, Tok::Eof);
    }

    #[test]
    fn positions_count_lines_and_byte_columns() {
        let mut lexer = Lexer::new("a\n  // note\n   %b \"x\ny\" c");
        let mut positions = Vec::new();
        loop {
            let (tok, pos) = lexer.next_token().unwrap();
            if tok == Tok::Eof {
                break;
            }
            positions.push((pos.line, pos.col));
        }
        assert_eq!(positions, [(1, 1), (3, 4), (3, 7), (4, 4)]);
    }

    /// Runs `f` on a thread with a 2 MiB stack, the size td-serve's pool
    /// workers get.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    fn assert_too_deep(result: Result<impl std::fmt::Debug, Diagnostic>) {
        let err = result.unwrap_err();
        assert!(err.message().contains("nesting deeper than"), "got: {err}");
    }

    /// `depth` generic ops, each holding the next in its region.
    fn nested_regions(depth: usize) -> String {
        "\"t.r\"() ({\n".repeat(depth) + &"}) : () -> ()\n".repeat(depth)
    }

    #[test]
    fn region_nesting_is_bounded() {
        on_small_stack(|| {
            let mut ctx = Context::new();
            let module = parse_module(&mut ctx, &nested_regions(MAX_NESTING)).unwrap();
            crate::verify::verify(&ctx, module).unwrap();
            let text = print_op(&ctx, module);
            let mut again = Context::new();
            let reparsed = parse_module(&mut again, &text).unwrap();
            assert_eq!(print_op(&again, reparsed), text);
            for depth in [MAX_NESTING + 1, 100_000] {
                assert_too_deep(parse_module(&mut ctx, &nested_regions(depth)));
            }
        });
    }

    #[test]
    fn array_attribute_nesting_is_bounded() {
        // The op and its attribute take two levels; the innermost array
        // holds one more.
        let nested_array = |depth: usize| {
            format!(
                "\"t.a\"() {{v = {}1{}}} : () -> ()",
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        on_small_stack(move || {
            let mut ctx = Context::new();
            let deepest = nested_array(MAX_NESTING - 2);
            let module = parse_module(&mut ctx, &deepest).unwrap();
            assert!(print_op(&ctx, module).contains(&deepest));
            for depth in [MAX_NESTING - 1, 100_000] {
                assert_too_deep(parse_module(&mut ctx, &nested_array(depth)));
            }
        });
    }

    #[test]
    fn function_type_nesting_is_bounded() {
        let nested_function = |depth: usize| "(".repeat(depth) + "i32" + &") -> i32".repeat(depth);
        on_small_stack(move || {
            let mut ctx = Context::new();
            let deepest = nested_function(MAX_NESTING - 1);
            let ty = parse_type_str(&mut ctx, &deepest).unwrap();
            assert_eq!(print_type(&ctx, ty), deepest);
            for depth in [MAX_NESTING, 100_000] {
                assert_too_deep(parse_type_str(&mut ctx, &nested_function(depth)));
            }
        });
    }

    #[test]
    fn an_extent_past_i64_is_an_error() {
        let mut ctx = Context::new();
        let err = parse_type_str(&mut ctx, "tensor<99999999999999999999xf32>").unwrap_err();
        assert!(err.message().contains("out of range"), "got: {err}");
    }

    #[test]
    fn repeated_shaped_types_parse_to_one_type() {
        let src = r#"
  %a = "t.src"() : () -> tensor<4x?xf32>
  %b = "t.id"(%a) : (tensor<4x?xf32>) -> tensor<4x?xf32>
  %c = "t.id"(%b) : (tensor<4x?xf32>) -> tensor <4x?xf32>
  %m = "t.src"() : () -> memref<4xf32, strided<[1], offset: ?>>
  "t.use"(%c, %m) : (tensor<4x?xf32>, memref<4xf32, strided<[1], offset: ?>>) -> ()
"#;
        let text = roundtrip(src);
        assert!(text.contains(
            "\"t.use\"(%2, %3) : (tensor<4x?xf32>, memref<4xf32, strided<[1], offset: ?>>) -> ()"
        ));
        // A shape parsed at the top still counts its element's level when
        // it recurs where that level is one too deep.
        let mut ctx = Context::new();
        let deep = nested_regions(MAX_NESTING - 2).replacen(
            "({\n}",
            "({\n\"t.src\"() : () -> tensor<2xf32>\n}",
            1,
        );
        let src = "%s = \"t.src\"() : () -> tensor<2xf32>\n".to_owned() + &deep;
        assert_too_deep(parse_module(&mut ctx, &src));
    }
}
