//! A lightweight item/expression tree over the token stream.
//!
//! This is **not** a Rust grammar: it is the minimal structure the
//! semantic rules (L007, L008) need — function boundaries with names and
//! parameters, `impl` context, struct fields and their type text, `use`
//! declarations, and inside bodies the things dataflow cares about:
//! `let` bindings, call and method chains, closures, and control-flow
//! blocks.  The parser is *forgiving by construction*: any token it does
//! not understand is skipped, unclosed delimiters close at end of input,
//! and nothing ever panics on malformed input.  Precision lost here
//! shows up as missed findings, never as a crash.
//!
//! Parsing happens in two passes: the token stream is first grouped into
//! a delimiter tree ([`Tree`], the same shape as a proc-macro token
//! stream), then a recursive-descent pass over sibling slices builds
//! items and expressions.  Angle brackets are **not** delimiters; the
//! parser skips balanced `<…>` runs only where generics can occur
//! (after `::`, after type names, after `impl`/`fn`).

use crate::lexer::{self, Token, TokenKind};

// ---------------------------------------------------------------------------
// Delimiter tree
// ---------------------------------------------------------------------------

/// Bracket style of a [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// A balanced delimiter group of the token stream.
#[derive(Debug, Clone)]
pub struct Group {
    /// The bracket style.
    pub delim: Delim,
    /// The trees inside the brackets.
    pub trees: Vec<Tree>,
    /// 1-based line of the opening bracket.
    pub open_line: usize,
    /// 1-based line of the closing bracket (end of input if unclosed).
    pub close_line: usize,
}

/// One node of the delimiter tree: a leaf token or a bracketed group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A balanced `()`/`[]`/`{}` group.
    Group(Group),
}

impl Tree {
    fn leaf(&self) -> Option<&Token> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.open_line,
        }
    }

    fn is_punct(&self, p: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    }

    fn is_ident(&self, name: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
    }

    fn ident(&self) -> Option<&str> {
        self.leaf().and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    fn group(&self, delim: Delim) -> Option<&Group> {
        match self {
            Tree::Group(g) if g.delim == delim => Some(g),
            _ => None,
        }
    }
}

fn open_delim(c: &str) -> Option<Delim> {
    match c {
        "(" => Some(Delim::Paren),
        "[" => Some(Delim::Bracket),
        "{" => Some(Delim::Brace),
        _ => None,
    }
}

fn close_delim(c: &str) -> Option<Delim> {
    match c {
        ")" => Some(Delim::Paren),
        "]" => Some(Delim::Bracket),
        "}" => Some(Delim::Brace),
        _ => None,
    }
}

/// Groups a token stream into a delimiter tree.  Unmatched closers are
/// dropped; unclosed groups close at end of input.
pub fn build_trees(tokens: &[Token]) -> Vec<Tree> {
    // Stack of (delim, open_line, children).
    let mut stack: Vec<(Delim, usize, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in tokens {
        if tok.kind == TokenKind::Punct {
            if let Some(d) = open_delim(&tok.text) {
                stack.push((d, tok.line, Vec::new()));
                continue;
            }
            if let Some(d) = close_delim(&tok.text) {
                // Close the nearest matching open group; a mismatched
                // closer closes nothing (dropped).
                if stack.last().is_some_and(|(open, _, _)| *open == d) {
                    let (delim, open_line, trees) = stack.pop().expect("non-empty stack");
                    let group = Tree::Group(Group {
                        delim,
                        trees,
                        open_line,
                        close_line: tok.line,
                    });
                    match stack.last_mut() {
                        Some((_, _, parent)) => parent.push(group),
                        None => top.push(group),
                    }
                }
                continue;
            }
        }
        let leaf = Tree::Leaf(tok.clone());
        match stack.last_mut() {
            Some((_, _, children)) => children.push(leaf),
            None => top.push(leaf),
        }
    }
    // Close any unterminated groups at end of input.
    let last_line = tokens.last().map_or(1, |t| t.line);
    while let Some((delim, open_line, trees)) = stack.pop() {
        let group = Tree::Group(Group {
            delim,
            trees,
            open_line,
            close_line: last_line,
        });
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(group),
            None => top.push(group),
        }
    }
    top
}

// ---------------------------------------------------------------------------
// Items
// ---------------------------------------------------------------------------

/// A parsed source file.
#[derive(Debug, Default, Clone)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item, with test-context tracking.
#[derive(Debug, Clone)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// True under `#[cfg(test)]` / `#[test]` (including inherited from an
    /// enclosing test module).
    pub in_test: bool,
}

/// One flattened `use` target: the path with the leaf name last.
#[derive(Debug, Clone)]
pub struct UseTarget {
    /// Full path segments, e.g. `["crate", "wal", "Journal"]`.
    pub path: Vec<String>,
    /// Local name the leaf is bound to (`as` alias or last segment);
    /// `*` for glob imports.
    pub local: String,
}

/// The parsed forms of an [`Item`].
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// A `use` declaration, flattened over `{…}` groups.
    Use(Vec<UseTarget>),
    /// `mod name;` (file module) or `mod name { … }` (inline).
    Mod {
        /// Module name.
        name: String,
        /// Inline body, or `None` for a file module.
        items: Option<Vec<Item>>,
    },
    /// A function definition.
    Fn(FnDef),
    /// An `impl` block (inherent or trait).
    Impl {
        /// Normalized text of the implemented type (generics kept).
        self_ty: String,
        /// Normalized trait path text for trait impls.
        trait_name: Option<String>,
        /// Items inside the impl (functions and nested consts).
        items: Vec<Item>,
    },
    /// A trait definition; default-bodied methods appear in `items`.
    Trait {
        /// Trait name.
        name: String,
        /// Trait items (methods with or without bodies).
        items: Vec<Item>,
    },
    /// A struct with named fields (tuple/unit structs have none).
    Struct {
        /// Struct name.
        name: String,
        /// `(field, normalized type text)` pairs.
        fields: Vec<(String, String)>,
    },
    /// A `static` or `const` with its type text and initializer.
    Static {
        /// Item name.
        name: String,
        /// Normalized type text.
        ty: String,
        /// Initializer expression.
        init: Option<Expr>,
    },
    /// Anything else (enums, type aliases, macro definitions, …).
    Other,
}

/// A function definition (free, impl method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `(name, normalized type text)` per parameter; a `self` receiver
    /// appears as `("self", "Self")`.
    pub params: Vec<(String, String)>,
    /// The body, or `None` for trait method declarations.
    pub body: Option<Block>,
}

// ---------------------------------------------------------------------------
// Statements and expressions
// ---------------------------------------------------------------------------

/// A brace-delimited body.
#[derive(Debug, Clone)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the closing brace — the end of every `let`
    /// binding's scope in this block.
    pub close_line: usize,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let` binding (incl. `let … else { … }`).
    Let(LetStmt),
    /// An expression statement.
    Expr(Expr),
    /// A nested item (fn, use, …).
    Item(Box<Item>),
}

/// A `let` binding.
#[derive(Debug, Clone)]
pub struct LetStmt {
    /// Every identifier bound by the pattern (first is the primary).
    pub names: Vec<String>,
    /// Normalized type-ascription text, if present.
    pub ty: Option<String>,
    /// The initializer.
    pub init: Option<Expr>,
    /// Diverging `else` block of a `let … else`.
    pub else_block: Option<Block>,
    /// 1-based line of the `let`.
    pub line: usize,
}

/// One expression, at the granularity the rules need.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A primary with postfix segments — paths, calls, method chains.
    Chain(Chain),
    /// A closure literal.
    Closure(Closure),
    /// A plain or `unsafe` block.
    Block(Block),
    /// `if`/`if let`, with the else branch as a nested expression.
    If {
        /// The condition (scrutinee for `if let`).
        cond: Box<Expr>,
        /// The then block.
        then_block: Block,
        /// `else` block or `else if` chain.
        else_expr: Option<Box<Expr>>,
    },
    /// A `for` loop.
    For {
        /// Identifiers bound by the loop pattern.
        pat_names: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
        /// 1-based line of the `for`.
        line: usize,
    },
    /// A `while`/`while let` loop.
    While {
        /// The condition (scrutinee for `while let`).
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// A `loop` block.
    Loop {
        /// The loop body.
        body: Block,
    },
    /// A `match`, with arm guards and arm bodies flattened together.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// Guard and body expressions of every arm, in order.
        arms: Vec<Expr>,
    },
    /// A macro invocation (`name!(…)` / `name![…]` / `name!{…}`).
    Macro(MacroCall),
    /// Operands of binary/assignment/range/cast sequences, flattened.
    Seq(Vec<Expr>),
    /// Nothing (empty operand position).
    Unit,
}

/// A macro invocation.
#[derive(Debug, Clone)]
pub struct MacroCall {
    /// Macro path text (`panic`, `vec`, `debug_assert`, …).
    pub name: String,
    /// Best-effort parse of the argument tokens as expressions.
    pub args: Vec<Expr>,
    /// 1-based line of the macro name.
    pub line: usize,
}

/// The head of a [`Chain`].
#[derive(Debug, Clone)]
pub enum ChainRoot {
    /// A (possibly qualified) path: `x`, `self.y` starts as `self`,
    /// `crate::a::B`.  Segment turbofish is stripped.
    Path(Vec<String>),
    /// A parenthesized or otherwise structured sub-expression.
    Expr(Box<Expr>),
    /// A literal, with its (blanked-string) token text — number literals
    /// keep their real text, so `0.0f64` is distinguishable.
    Lit(String),
}

/// A postfix segment of a [`Chain`].
#[derive(Debug, Clone)]
pub enum ChainSeg {
    /// `(args)` applied to the root path — a function call.
    Call {
        /// Call arguments.
        args: Vec<Expr>,
        /// 1-based line of the argument list.
        line: usize,
    },
    /// `.name(args)` — a method call.
    Method {
        /// Method name.
        name: String,
        /// Call arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: usize,
        /// Turbofish text (`<f64>` for `.sum::<f64>()`), if present.
        turbofish: Option<String>,
    },
    /// `.name` / `.0` — a field access.
    Field(String),
    /// `[index]` — an index expression.
    Index(Vec<Expr>),
    /// `Path { field: expr, … }` — a struct literal's field values.
    StructLit(Vec<Expr>),
}

/// A primary expression plus its postfix segments.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The head.
    pub root: ChainRoot,
    /// Postfix segments in application order.
    pub segs: Vec<ChainSeg>,
    /// 1-based line the chain starts on.
    pub line: usize,
}

/// A closure literal.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Parameter names.
    pub params: Vec<String>,
    /// The body expression.
    pub body: Box<Expr>,
    /// 1-based line of the opening `|`.
    pub line: usize,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses full source text into a [`File`].
pub fn parse_file(source: &str) -> File {
    let tokens = lexer::tokenize(source);
    let trees = build_trees(&tokens);
    let mut p = Parser {
        trees: &trees,
        i: 0,
    };
    File {
        items: p.parse_items(false),
    }
}

/// Binary / assignment / range operators that continue an expression.
const BINARY_OPS: [&str; 26] = [
    "+", "-", "*", "/", "%", "^", "&", "|", "<", ">", "=", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "^=", "|=", "..", "..=",
];

/// Keywords that never start an expression operand (statement context).
fn is_item_keyword(name: &str) -> bool {
    matches!(
        name,
        "fn" | "use"
            | "mod"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "pub"
            | "extern"
            | "union"
    )
}

struct Parser<'t> {
    trees: &'t [Tree],
    i: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> Option<&'t Tree> {
        self.trees.get(self.i)
    }

    fn peek_at(&self, offset: usize) -> Option<&'t Tree> {
        self.trees.get(self.i + offset)
    }

    fn bump(&mut self) -> Option<&'t Tree> {
        let t = self.trees.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(p)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_ident(name)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Skips one balanced `<…>` run if positioned on `<`.
    fn skip_generics(&mut self) {
        if !self.peek().is_some_and(|t| t.is_punct("<")) {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            } else if t.is_punct("->") {
                // `fn(…) -> T` inside generics: the `>` in `->` is joined
                // and never miscounted, nothing to do.
            } else if t.is_punct(";") {
                // Give up at a statement boundary — malformed input.
                return;
            }
            self.i += 1;
        }
    }

    /// Like [`Self::skip_generics`], but returns the rendered text of the
    /// `<…>` run (`None` when not positioned on `<`).
    fn generics_text(&mut self) -> Option<String> {
        if !self.peek().is_some_and(|t| t.is_punct("<")) {
            return None;
        }
        let mut out = String::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t {
                Tree::Leaf(tok) => {
                    if tok.is_punct_text("<") {
                        depth += 1;
                    } else if tok.is_punct_text(">") {
                        depth -= 1;
                        if depth <= 0 {
                            out.push('>');
                            self.i += 1;
                            return Some(out);
                        }
                    } else if tok.is_punct_text(";") {
                        return Some(out);
                    }
                    out.push_str(&tok.text);
                }
                Tree::Group(g) => out.push_str(match g.delim {
                    Delim::Paren => "()",
                    Delim::Bracket => "[]",
                    Delim::Brace => "{}",
                }),
            }
            self.i += 1;
        }
        Some(out)
    }

    /// Collects normalized type text until one of `stops` at angle-depth
    /// zero (group subtrees are rendered opaquely).
    fn type_text_until(&mut self, stops: &[&str]) -> String {
        let mut out = String::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if depth <= 0 {
                match t {
                    Tree::Leaf(tok) => {
                        if (tok.kind == TokenKind::Punct || tok.kind == TokenKind::Ident)
                            && stops.contains(&tok.text.as_str())
                        {
                            break;
                        }
                    }
                    Tree::Group(g) => {
                        let open = match g.delim {
                            Delim::Paren => "(",
                            Delim::Bracket => "[",
                            Delim::Brace => "{",
                        };
                        if stops.contains(&open) {
                            break;
                        }
                    }
                }
            }
            match t {
                Tree::Leaf(tok) => {
                    if tok.is_punct_text("<") {
                        depth += 1;
                    } else if tok.is_punct_text(">") {
                        depth -= 1;
                    }
                    out.push_str(&tok.text);
                }
                Tree::Group(g) => {
                    out.push_str(match g.delim {
                        Delim::Paren => "()",
                        Delim::Bracket => "[]",
                        Delim::Brace => "{}",
                    });
                }
            }
            self.i += 1;
        }
        out
    }

    // -- items ----------------------------------------------------------

    /// Parses a sibling run of items.  `in_test` marks an enclosing test
    /// module.
    fn parse_items(&mut self, in_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut pending_test = false;
        while self.i < self.trees.len() {
            let before = self.i;
            // Attributes: `#` `[ … ]` (or `#!` `[ … ]`).
            if self.peek().is_some_and(|t| t.is_punct("#")) {
                self.i += 1;
                self.eat_punct("!");
                if let Some(Tree::Group(g)) = self.peek() {
                    if g.delim == Delim::Bracket {
                        if attr_is_test(g) {
                            pending_test = true;
                        }
                        self.i += 1;
                    }
                }
                continue;
            }
            if let Some(item) = self.parse_item(in_test || pending_test) {
                items.push(item);
                pending_test = false;
                continue;
            }
            // Not an item: skip one tree so we always make progress.
            if self.i == before {
                self.i += 1;
            }
        }
        items
    }

    /// Parses one item if positioned on one.
    fn parse_item(&mut self, in_test: bool) -> Option<Item> {
        let start = self.i;
        // Visibility and modifiers.
        if self.eat_ident("pub") {
            // `pub(crate)` / `pub(super)` / `pub(in path)`.
            if self.peek().and_then(|t| t.group(Delim::Paren)).is_some() {
                self.i += 1;
            }
        }
        loop {
            if self.eat_ident("async") || self.eat_ident("unsafe") || self.eat_ident("default") {
                continue;
            }
            if self.eat_ident("extern") {
                // `extern "C"` string.
                if self
                    .peek()
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind == TokenKind::Str)
                {
                    self.i += 1;
                }
                continue;
            }
            break;
        }
        let kw = match self.peek().and_then(Tree::ident) {
            Some(k) if is_item_keyword(k) || k == "macro_rules" => k.to_string(),
            // `const fn` reaches here with `const` eaten below; handle
            // plain identifiers as "not an item".
            _ => {
                self.i = start;
                return None;
            }
        };
        let line = self.peek().map_or(1, Tree::line);
        match kw.as_str() {
            "fn" => {
                self.i += 1;
                let def = self.parse_fn_after_kw(line)?;
                Some(Item {
                    kind: ItemKind::Fn(def),
                    line,
                    in_test,
                })
            }
            "const" => {
                // `const fn name…` or `const NAME: T = …;`.
                self.i += 1;
                if self.peek().is_some_and(|t| t.is_ident("fn")) {
                    self.i += 1;
                    let def = self.parse_fn_after_kw(line)?;
                    return Some(Item {
                        kind: ItemKind::Fn(def),
                        line,
                        in_test,
                    });
                }
                self.parse_static_like(line, in_test)
            }
            "static" => {
                self.i += 1;
                self.eat_ident("mut");
                self.parse_static_like(line, in_test)
            }
            "use" => {
                self.i += 1;
                let targets = self.parse_use_targets();
                self.eat_punct(";");
                Some(Item {
                    kind: ItemKind::Use(targets),
                    line,
                    in_test,
                })
            }
            "mod" => {
                self.i += 1;
                let name = self.bump().and_then(Tree::ident)?.to_string();
                if let Some(Tree::Group(g)) = self.peek() {
                    if g.delim == Delim::Brace {
                        let mut inner = Parser {
                            trees: &g.trees,
                            i: 0,
                        };
                        let is_test_mod = in_test;
                        let items = inner.parse_items(is_test_mod);
                        self.i += 1;
                        return Some(Item {
                            kind: ItemKind::Mod {
                                name,
                                items: Some(items),
                            },
                            line,
                            in_test,
                        });
                    }
                }
                self.eat_punct(";");
                Some(Item {
                    kind: ItemKind::Mod { name, items: None },
                    line,
                    in_test,
                })
            }
            "impl" => {
                self.i += 1;
                self.skip_generics();
                let first = self.type_text_until(&["for", "where", "{"]);
                let (self_ty, trait_name) = if self.eat_ident("for") {
                    let ty = self.type_text_until(&["where", "{"]);
                    (ty, Some(first))
                } else {
                    (first, None)
                };
                // Skip the `where` clause.
                while self.peek().is_some_and(|t| t.group(Delim::Brace).is_none()) {
                    self.i += 1;
                }
                let items = match self.peek() {
                    Some(Tree::Group(g)) => {
                        let mut inner = Parser {
                            trees: &g.trees,
                            i: 0,
                        };
                        let items = inner.parse_items(in_test);
                        self.i += 1;
                        items
                    }
                    _ => Vec::new(),
                };
                Some(Item {
                    kind: ItemKind::Impl {
                        self_ty,
                        trait_name,
                        items,
                    },
                    line,
                    in_test,
                })
            }
            "trait" => {
                self.i += 1;
                let name = self.bump().and_then(Tree::ident)?.to_string();
                while self.peek().is_some_and(|t| t.group(Delim::Brace).is_none()) {
                    if self.peek().is_some_and(|t| t.is_punct(";")) {
                        break;
                    }
                    self.i += 1;
                }
                let items = match self.peek() {
                    Some(Tree::Group(g)) => {
                        let mut inner = Parser {
                            trees: &g.trees,
                            i: 0,
                        };
                        let items = inner.parse_items(in_test);
                        self.i += 1;
                        items
                    }
                    _ => {
                        self.eat_punct(";");
                        Vec::new()
                    }
                };
                Some(Item {
                    kind: ItemKind::Trait { name, items },
                    line,
                    in_test,
                })
            }
            "struct" => {
                self.i += 1;
                let name = self.bump().and_then(Tree::ident)?.to_string();
                self.skip_generics();
                // Skip `where` clauses.
                while self.peek().is_some_and(|t| {
                    t.leaf().is_some_and(|tok| {
                        !(tok.is_punct_text(";")) && t.group(Delim::Brace).is_none()
                    }) && t.group(Delim::Paren).is_none()
                        && t.group(Delim::Brace).is_none()
                }) {
                    self.i += 1;
                }
                let mut fields = Vec::new();
                match self.peek() {
                    Some(Tree::Group(g)) if g.delim == Delim::Brace => {
                        fields = parse_named_fields(&g.trees);
                        self.i += 1;
                    }
                    Some(Tree::Group(g)) if g.delim == Delim::Paren => {
                        // Tuple struct: no named fields.
                        self.i += 1;
                        self.eat_punct(";");
                    }
                    _ => {
                        self.eat_punct(";");
                    }
                }
                Some(Item {
                    kind: ItemKind::Struct { name, fields },
                    line,
                    in_test,
                })
            }
            "enum" | "union" | "type" => {
                self.i += 1;
                // name, generics, then body/alias — structure unused.
                self.bump();
                self.skip_generics();
                while let Some(t) = self.peek() {
                    if t.is_punct(";") {
                        self.i += 1;
                        break;
                    }
                    if t.group(Delim::Brace).is_some() {
                        self.i += 1;
                        break;
                    }
                    self.i += 1;
                }
                Some(Item {
                    kind: ItemKind::Other,
                    line,
                    in_test,
                })
            }
            "macro_rules" => {
                // `macro_rules ! name { … }`
                self.i += 1;
                self.eat_punct("!");
                self.bump();
                if self.peek().is_some_and(|t| t.group(Delim::Brace).is_some()) {
                    self.i += 1;
                }
                Some(Item {
                    kind: ItemKind::Other,
                    line,
                    in_test,
                })
            }
            _ => {
                self.i = start;
                None
            }
        }
    }

    fn parse_static_like(&mut self, line: usize, in_test: bool) -> Option<Item> {
        let name = self.bump().and_then(Tree::ident)?.to_string();
        let ty = if self.eat_punct(":") {
            self.type_text_until(&["=", ";"])
        } else {
            String::new()
        };
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(true))
        } else {
            None
        };
        self.eat_punct(";");
        Some(Item {
            kind: ItemKind::Static { name, ty, init },
            line,
            in_test,
        })
    }

    /// Parses a fn after the `fn` keyword: name, generics, params, return
    /// type, where clause, body.
    fn parse_fn_after_kw(&mut self, line: usize) -> Option<FnDef> {
        let name = self.bump().and_then(Tree::ident)?.to_string();
        self.skip_generics();
        let params = match self.peek() {
            Some(Tree::Group(g)) if g.delim == Delim::Paren => {
                let params = parse_params(&g.trees);
                self.i += 1;
                params
            }
            _ => Vec::new(),
        };
        // Return type and where clause: skip to the body brace or `;`.
        while let Some(t) = self.peek() {
            if t.is_punct(";") {
                self.i += 1;
                return Some(FnDef {
                    name,
                    line,
                    params,
                    body: None,
                });
            }
            if t.group(Delim::Brace).is_some() {
                break;
            }
            self.i += 1;
        }
        let body = match self.peek() {
            Some(Tree::Group(g)) if g.delim == Delim::Brace => {
                let block = parse_block(g);
                self.i += 1;
                Some(block)
            }
            _ => None,
        };
        Some(FnDef {
            name,
            line,
            params,
            body,
        })
    }

    /// Parses the body of a `use` declaration into flattened targets.
    fn parse_use_targets(&mut self) -> Vec<UseTarget> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.parse_use_tree(&mut prefix, &mut out);
        out
    }

    fn parse_use_tree(&mut self, prefix: &mut Vec<String>, out: &mut Vec<UseTarget>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.peek() {
                Some(t) if t.ident().is_some() || t.is_punct("*") => {
                    let seg = if t.is_punct("*") {
                        "*".to_string()
                    } else {
                        t.ident().unwrap_or_default().to_string()
                    };
                    self.i += 1;
                    if self.eat_punct("::") {
                        if let Some(Tree::Group(g)) = self.peek() {
                            if g.delim == Delim::Brace {
                                prefix.push(seg);
                                let mut inner = Parser {
                                    trees: &g.trees,
                                    i: 0,
                                };
                                loop {
                                    inner.parse_use_tree(prefix, out);
                                    if !inner.eat_punct(",") {
                                        break;
                                    }
                                }
                                self.i += 1;
                                prefix.truncate(depth_at_entry);
                                return;
                            }
                        }
                        prefix.push(seg);
                        continue;
                    }
                    // Leaf: optional `as alias`.
                    let mut local = seg.clone();
                    if self.eat_ident("as") {
                        if let Some(alias) = self.peek().and_then(Tree::ident) {
                            local = alias.to_string();
                            self.i += 1;
                        }
                    }
                    let mut path = prefix.clone();
                    path.push(seg);
                    out.push(UseTarget { path, local });
                    prefix.truncate(depth_at_entry);
                    return;
                }
                Some(t) if t.group(Delim::Brace).is_some() => {
                    // `use {a, b};` with no prefix segment.
                    let g = t.group(Delim::Brace).expect("matched Some above");
                    let mut inner = Parser {
                        trees: &g.trees,
                        i: 0,
                    };
                    loop {
                        inner.parse_use_tree(prefix, out);
                        if !inner.eat_punct(",") {
                            break;
                        }
                    }
                    self.i += 1;
                    return;
                }
                _ => return,
            }
        }
    }

    // -- expressions ----------------------------------------------------

    /// Parses one expression, consuming as much as possible.
    /// `struct_ok` gates `Path { … }` struct-literal parsing (false in
    /// condition / iterator position, matching Rust's restriction).
    fn parse_expr(&mut self, struct_ok: bool) -> Expr {
        let lhs = self.parse_operand(struct_ok);
        // Binary operator sequences flatten into Expr::Seq.
        let mut parts = vec![lhs];
        while let Some(t) = self.peek() {
            if let Some(tok) = t.leaf() {
                if tok.kind == TokenKind::Punct && BINARY_OPS.contains(&tok.text.as_str()) {
                    self.i += 1;
                    // Range with no upper bound (`a..`): stop cleanly.
                    if self.at_expr_end() {
                        break;
                    }
                    parts.push(self.parse_operand(struct_ok));
                    continue;
                }
                if tok.kind == TokenKind::Ident && tok.text == "as" {
                    // Cast: skip the type.
                    self.i += 1;
                    self.skip_cast_type();
                    continue;
                }
            }
            break;
        }
        if parts.len() == 1 {
            parts.pop().expect("one element")
        } else {
            Expr::Seq(parts)
        }
    }

    fn at_expr_end(&self) -> bool {
        match self.peek() {
            None => true,
            Some(t) => t.is_punct(";") || t.is_punct(","),
        }
    }

    /// Skips the type tokens after `as`.
    fn skip_cast_type(&mut self) {
        while let Some(t) = self.peek() {
            match t {
                Tree::Leaf(tok) => {
                    let is_ty = tok.kind == TokenKind::Ident
                        && !BINARY_OPS.contains(&tok.text.as_str())
                        && tok.text != "as"
                        || tok.is_punct_text("::")
                        || tok.kind == TokenKind::Lifetime
                        || tok.is_punct_text("&")
                        || tok.is_punct_text("*");
                    if tok.is_punct_text("<") {
                        self.skip_generics();
                        continue;
                    }
                    if !is_ty {
                        return;
                    }
                    // `as usize` then a binary op: the op ends the type.
                    self.i += 1;
                }
                Tree::Group(_) => return,
            }
        }
    }

    /// Parses one operand: prefixes, a primary, postfix segments.
    fn parse_operand(&mut self, struct_ok: bool) -> Expr {
        // Prefix operators and keywords that wrap an operand.
        loop {
            let Some(t) = self.peek() else {
                return Expr::Unit;
            };
            if t.is_punct("&") || t.is_punct("*") || t.is_punct("!") || t.is_punct("-") {
                self.i += 1;
                continue;
            }
            if t.is_ident("mut") || t.is_ident("ref") || t.is_ident("box") || t.is_ident("dyn") {
                self.i += 1;
                continue;
            }
            if t.is_ident("return") || t.is_ident("break") {
                self.i += 1;
                // Optional label after break.
                if self
                    .peek()
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind == TokenKind::Lifetime)
                {
                    self.i += 1;
                }
                if self.at_expr_end() || self.peek().is_none() {
                    return Expr::Unit;
                }
                continue;
            }
            if t.is_ident("continue") {
                self.i += 1;
                if self
                    .peek()
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind == TokenKind::Lifetime)
                {
                    self.i += 1;
                }
                return Expr::Unit;
            }
            if t.is_ident("move") {
                self.i += 1;
                continue;
            }
            break;
        }
        let Some(t) = self.peek() else {
            return Expr::Unit;
        };

        // Loop labels: `'l: loop { … }`.
        if t.leaf().is_some_and(|tok| tok.kind == TokenKind::Lifetime)
            && self.peek_at(1).is_some_and(|n| n.is_punct(":"))
        {
            self.i += 2;
            return self.parse_operand(struct_ok);
        }

        // Closures.
        if t.is_punct("|") || t.is_punct("||") {
            return self.parse_closure();
        }

        // Control flow and blocks.
        if let Some(kw) = t.ident() {
            match kw {
                "if" => return self.parse_if(),
                "match" => return self.parse_match(),
                "for" => return self.parse_for(),
                "while" => return self.parse_while(),
                "loop" => {
                    self.i += 1;
                    let body = self.expect_block();
                    return self.postfix(Expr::Loop { body }, struct_ok);
                }
                "unsafe" => {
                    self.i += 1;
                    let body = self.expect_block();
                    return self.postfix(Expr::Block(body), struct_ok);
                }
                "let" => {
                    // `let` in expression position (if let / while let
                    // conditions reach here): skip pattern, parse the
                    // scrutinee after `=`.
                    self.i += 1;
                    while let Some(t) = self.peek() {
                        if t.is_punct("=") {
                            self.i += 1;
                            break;
                        }
                        if t.is_punct(";") || t.group(Delim::Brace).is_some() {
                            break;
                        }
                        self.i += 1;
                    }
                    return self.parse_operand(false);
                }
                _ => {}
            }
        }

        // Primaries.
        let line = t.line();
        match t {
            Tree::Group(g) => {
                self.i += 1;
                match g.delim {
                    Delim::Brace => {
                        let block = parse_block(g);
                        self.postfix(Expr::Block(block), struct_ok)
                    }
                    Delim::Paren | Delim::Bracket => {
                        let exprs = parse_comma_exprs(&g.trees);
                        let inner = match exprs.len() {
                            0 => Expr::Unit,
                            1 => {
                                let mut exprs = exprs;
                                exprs.pop().expect("one element")
                            }
                            _ => Expr::Seq(exprs),
                        };
                        let chain = Chain {
                            root: ChainRoot::Expr(Box::new(inner)),
                            segs: Vec::new(),
                            line,
                        };
                        self.chain_postfix(chain, struct_ok)
                    }
                }
            }
            Tree::Leaf(tok) => match tok.kind {
                TokenKind::Ident => {
                    let path = self.parse_path();
                    // Macro invocation?
                    if self.peek().is_some_and(|t| t.is_punct("!")) {
                        if let Some(Tree::Group(g)) = self.peek_at(1) {
                            let name = path.join("::");
                            let args = parse_comma_exprs(&g.trees);
                            self.i += 2;
                            let mac = Expr::Macro(MacroCall { name, args, line });
                            return self.postfix(mac, struct_ok);
                        }
                    }
                    // Struct literal?
                    if struct_ok && path_is_type_like(&path) {
                        if let Some(Tree::Group(g)) = self.peek() {
                            if g.delim == Delim::Brace {
                                let fields = parse_struct_lit_fields(&g.trees);
                                self.i += 1;
                                let chain = Chain {
                                    root: ChainRoot::Path(path),
                                    segs: vec![ChainSeg::StructLit(fields)],
                                    line,
                                };
                                return self.chain_postfix(chain, struct_ok);
                            }
                        }
                    }
                    let chain = Chain {
                        root: ChainRoot::Path(path),
                        segs: Vec::new(),
                        line,
                    };
                    self.chain_postfix(chain, struct_ok)
                }
                TokenKind::Number | TokenKind::Str | TokenKind::Char => {
                    self.i += 1;
                    let chain = Chain {
                        root: ChainRoot::Lit(tok.text.clone()),
                        segs: Vec::new(),
                        line,
                    };
                    self.chain_postfix(chain, struct_ok)
                }
                TokenKind::Lifetime => {
                    self.i += 1;
                    Expr::Unit
                }
                TokenKind::Punct => {
                    // `::path` absolute paths.
                    if tok.text == "::" {
                        let path = self.parse_path();
                        let chain = Chain {
                            root: ChainRoot::Path(path),
                            segs: Vec::new(),
                            line,
                        };
                        return self.chain_postfix(chain, struct_ok);
                    }
                    // Unknown punct in operand position: consume to make
                    // progress and yield Unit.
                    self.i += 1;
                    Expr::Unit
                }
            },
        }
    }

    /// Parses a `::`-separated path, skipping turbofish generics.
    fn parse_path(&mut self) -> Vec<String> {
        let mut segs = Vec::new();
        self.eat_punct("::");
        while let Some(seg) = self.peek().and_then(Tree::ident) {
            segs.push(seg.to_string());
            self.i += 1;
            if self.eat_punct("::") {
                if self.peek().is_some_and(|t| t.is_punct("<")) {
                    self.skip_generics();
                    if !self.eat_punct("::") {
                        break;
                    }
                }
                continue;
            }
            break;
        }
        segs
    }

    fn parse_closure(&mut self) -> Expr {
        let line = self.peek().map_or(1, Tree::line);
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // Zero-parameter closure.
        } else if self.eat_punct("|") {
            // Parameters until the closing `|` at depth 0.
            let mut expecting_name = true;
            while let Some(t) = self.peek() {
                if t.is_punct("|") {
                    self.i += 1;
                    break;
                }
                if t.is_punct(",") {
                    expecting_name = true;
                    self.i += 1;
                    continue;
                }
                if t.is_punct(":") {
                    // Parameter type: skip tokens until `,` or `|`.
                    self.i += 1;
                    while let Some(ty) = self.peek() {
                        if ty.is_punct(",") || ty.is_punct("|") {
                            break;
                        }
                        if ty.is_punct("<") {
                            self.skip_generics();
                            continue;
                        }
                        self.i += 1;
                    }
                    continue;
                }
                if expecting_name {
                    if let Some(name) = t.ident() {
                        if name != "mut" && name != "ref" && name != "_" {
                            params.push(name.to_string());
                            expecting_name = false;
                        }
                    }
                }
                self.i += 1;
            }
        }
        // Optional return type: `-> T` then a block.
        if self.eat_punct("->") {
            while self.peek().is_some_and(|t| t.group(Delim::Brace).is_none()) {
                self.i += 1;
            }
        }
        let body = self.parse_expr(true);
        Expr::Closure(Closure {
            params,
            body: Box::new(body),
            line,
        })
    }

    fn parse_if(&mut self) -> Expr {
        self.i += 1; // `if`
        let cond = self.parse_expr(false);
        let then_block = self.expect_block();
        let else_expr = if self.eat_ident("else") {
            if self.peek().is_some_and(|t| t.is_ident("if")) {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Expr::Block(self.expect_block())))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then_block,
            else_expr,
        }
    }

    fn parse_match(&mut self) -> Expr {
        self.i += 1; // `match`
        let scrutinee = self.parse_expr(false);
        let mut arms = Vec::new();
        if let Some(Tree::Group(g)) = self.peek() {
            if g.delim == Delim::Brace {
                self.i += 1;
                let mut p = Parser {
                    trees: &g.trees,
                    i: 0,
                };
                while p.i < p.trees.len() {
                    // Pattern: skip until `=>`, but parse guards.
                    let mut advanced = false;
                    while let Some(t) = p.peek() {
                        if t.is_punct("=>") {
                            p.i += 1;
                            advanced = true;
                            arms.push(p.parse_expr(true));
                            p.eat_punct(",");
                            break;
                        }
                        if t.is_ident("if") {
                            p.i += 1;
                            advanced = true;
                            arms.push(p.parse_expr(false));
                            continue;
                        }
                        p.i += 1;
                        advanced = true;
                    }
                    if !advanced {
                        break;
                    }
                }
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
        }
    }

    fn parse_for(&mut self) -> Expr {
        let line = self.peek().map_or(1, Tree::line);
        self.i += 1; // `for`
        let mut pat_names = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_ident("in") {
                self.i += 1;
                break;
            }
            collect_pattern_idents(t, &mut pat_names);
            self.i += 1;
        }
        let iter = self.parse_expr(false);
        let body = self.expect_block();
        Expr::For {
            pat_names,
            iter: Box::new(iter),
            body,
            line,
        }
    }

    fn parse_while(&mut self) -> Expr {
        self.i += 1; // `while`
        let cond = self.parse_expr(false);
        let body = self.expect_block();
        Expr::While {
            cond: Box::new(cond),
            body,
        }
    }

    fn expect_block(&mut self) -> Block {
        match self.peek() {
            Some(Tree::Group(g)) if g.delim == Delim::Brace => {
                let block = parse_block(g);
                self.i += 1;
                block
            }
            _ => Block {
                stmts: Vec::new(),
                close_line: self.peek().map_or(0, Tree::line),
            },
        }
    }

    /// Applies postfix chain segments to a non-chain expression.
    fn postfix(&mut self, expr: Expr, struct_ok: bool) -> Expr {
        if self
            .peek()
            .is_some_and(|t| t.is_punct(".") || t.is_punct("?") || t.group(Delim::Paren).is_some())
        {
            let line = self.peek().map_or(1, Tree::line);
            let chain = Chain {
                root: ChainRoot::Expr(Box::new(expr)),
                segs: Vec::new(),
                line,
            };
            self.chain_postfix(chain, struct_ok)
        } else {
            expr
        }
    }

    /// Consumes postfix segments onto `chain`.
    fn chain_postfix(&mut self, mut chain: Chain, _struct_ok: bool) -> Expr {
        while let Some(t) = self.peek() {
            if t.is_punct("?") {
                self.i += 1;
                continue;
            }
            if let Some(g) = t.group(Delim::Paren) {
                let line = g.open_line;
                let args = parse_comma_exprs(&g.trees);
                self.i += 1;
                // A paren group directly after the root path is a call;
                // after a method segment it was already consumed.
                chain.segs.push(ChainSeg::Call { args, line });
                continue;
            }
            if let Some(g) = t.group(Delim::Bracket) {
                let args = parse_comma_exprs(&g.trees);
                self.i += 1;
                chain.segs.push(ChainSeg::Index(args));
                continue;
            }
            if t.is_punct(".") {
                self.i += 1;
                let Some(t) = self.peek() else { break };
                if t.is_ident("await") {
                    self.i += 1;
                    continue;
                }
                if let Some(tok) = t.leaf() {
                    if tok.kind == TokenKind::Number {
                        // Tuple field access `.0`.
                        self.i += 1;
                        chain.segs.push(ChainSeg::Field(tok.text.clone()));
                        continue;
                    }
                    if tok.kind == TokenKind::Ident {
                        let name = tok.text.clone();
                        let line = tok.line;
                        self.i += 1;
                        let mut turbofish = None;
                        if self.peek().is_some_and(|t| t.is_punct("::")) {
                            self.i += 1;
                            turbofish = self.generics_text();
                        }
                        if let Some(g) = self.peek().and_then(|t| t.group(Delim::Paren)) {
                            let args = parse_comma_exprs(&g.trees);
                            self.i += 1;
                            chain.segs.push(ChainSeg::Method {
                                name,
                                args,
                                line,
                                turbofish,
                            });
                        } else {
                            chain.segs.push(ChainSeg::Field(name));
                        }
                        continue;
                    }
                }
                break;
            }
            break;
        }
        Expr::Chain(chain)
    }
}

/// Is a `#[…]` attribute group a test marker (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[bench]`)?
fn attr_is_test(g: &Group) -> bool {
    let mut saw_cfg = false;
    fn scan(trees: &[Tree], saw_cfg: &mut bool, hit: &mut bool) {
        for t in trees {
            match t {
                Tree::Leaf(tok) if tok.kind == TokenKind::Ident => {
                    if tok.text == "cfg" {
                        *saw_cfg = true;
                    }
                    if tok.text == "test" || tok.text == "bench" {
                        *hit = true;
                    }
                }
                Tree::Group(g) => scan(&g.trees, saw_cfg, hit),
                _ => {}
            }
        }
    }
    let mut hit = false;
    // Bare `#[test]` / `#[bench]`.
    if let Some(first) = g.trees.first().and_then(Tree::ident) {
        if (first == "test" || first == "bench") && g.trees.len() == 1 {
            return true;
        }
    }
    scan(&g.trees, &mut saw_cfg, &mut hit);
    saw_cfg && hit
}

/// Collects identifiers bound by a pattern tree (skipping path segments
/// that are type-like, i.e. capitalized enum variants).
fn collect_pattern_idents(t: &Tree, out: &mut Vec<String>) {
    match t {
        Tree::Leaf(tok) if tok.kind == TokenKind::Ident => {
            let name = tok.text.as_str();
            let keyword = matches!(name, "mut" | "ref" | "_" | "Some" | "Ok" | "Err" | "None");
            let type_like = name.chars().next().is_some_and(char::is_uppercase);
            if !keyword && !type_like {
                out.push(name.to_string());
            }
        }
        Tree::Group(g) => {
            for t in &g.trees {
                collect_pattern_idents(t, out);
            }
        }
        _ => {}
    }
}

/// Does a path look like a type (last segment capitalized), making a
/// following brace group a struct literal rather than a block?
fn path_is_type_like(path: &[String]) -> bool {
    path.last()
        .and_then(|s| s.chars().next())
        .is_some_and(char::is_uppercase)
}

/// Parses `name: Type` named-field lists (struct bodies).
fn parse_named_fields(trees: &[Tree]) -> Vec<(String, String)> {
    let mut p = Parser { trees, i: 0 };
    let mut fields = Vec::new();
    while p.i < trees.len() {
        // Skip attributes and visibility.
        if p.peek().is_some_and(|t| t.is_punct("#")) {
            p.i += 1;
            if p.peek().is_some_and(|t| t.group(Delim::Bracket).is_some()) {
                p.i += 1;
            }
            continue;
        }
        if p.eat_ident("pub") {
            if p.peek().and_then(|t| t.group(Delim::Paren)).is_some() {
                p.i += 1;
            }
            continue;
        }
        let Some(name) = p.peek().and_then(Tree::ident).map(str::to_string) else {
            p.i += 1;
            continue;
        };
        p.i += 1;
        if !p.eat_punct(":") {
            continue;
        }
        let ty = p.type_text_until(&[","]);
        p.eat_punct(",");
        fields.push((name, ty));
    }
    fields
}

/// Parses `field: expr` struct-literal bodies into the field expressions.
fn parse_struct_lit_fields(trees: &[Tree]) -> Vec<Expr> {
    let mut p = Parser { trees, i: 0 };
    let mut out = Vec::new();
    while p.i < trees.len() {
        // `..base` spread.
        if p.eat_punct("..") {
            out.push(p.parse_expr(true));
            p.eat_punct(",");
            continue;
        }
        // `name: expr` or shorthand `name`.
        let start = p.i;
        if p.peek().and_then(Tree::ident).is_some() {
            p.i += 1;
            if p.eat_punct(":") {
                out.push(p.parse_expr(true));
                p.eat_punct(",");
                continue;
            }
            p.i = start;
        }
        out.push(p.parse_expr(true));
        if !p.eat_punct(",") && p.i == start {
            p.i += 1;
        }
    }
    out
}

/// Parses a comma-separated expression list (call arguments, tuples,
/// array literals, macro arguments).
fn parse_comma_exprs(trees: &[Tree]) -> Vec<Expr> {
    let mut p = Parser { trees, i: 0 };
    let mut out = Vec::new();
    while p.i < trees.len() {
        let before = p.i;
        let e = p.parse_expr(true);
        out.push(e);
        p.eat_punct(",");
        // `vec![x; n]` separators and anything else unparsed.
        p.eat_punct(";");
        if p.i == before {
            p.i += 1;
        }
    }
    out
}

/// Parses a fn parameter list into `(name, type text)` pairs.
fn parse_params(trees: &[Tree]) -> Vec<(String, String)> {
    let mut p = Parser { trees, i: 0 };
    let mut out = Vec::new();
    while p.i < trees.len() {
        // Skip attributes.
        if p.peek().is_some_and(|t| t.is_punct("#")) {
            p.i += 1;
            if p.peek().is_some_and(|t| t.group(Delim::Bracket).is_some()) {
                p.i += 1;
            }
            continue;
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`.
        let start = p.i;
        while p.peek().is_some_and(|t| {
            t.is_punct("&")
                || t.is_ident("mut")
                || t.leaf().is_some_and(|tok| tok.kind == TokenKind::Lifetime)
        }) {
            p.i += 1;
        }
        if p.peek().is_some_and(|t| t.is_ident("self")) {
            p.i += 1;
            out.push(("self".to_string(), "Self".to_string()));
            p.eat_punct(",");
            continue;
        }
        p.i = start;
        // `name: Type`.
        let mut names = Vec::new();
        while let Some(t) = p.peek() {
            if t.is_punct(":") {
                break;
            }
            if t.is_punct(",") {
                break;
            }
            collect_pattern_idents(t, &mut names);
            p.i += 1;
        }
        if p.eat_punct(":") {
            let ty = p.type_text_until(&[","]);
            let name = names.into_iter().next().unwrap_or_else(|| "_".to_string());
            out.push((name, ty));
        }
        if !p.eat_punct(",") && p.i == start {
            p.i += 1;
        }
    }
    out
}

/// Parses a brace group as a statement block.
fn parse_block(g: &Group) -> Block {
    let mut p = Parser {
        trees: &g.trees,
        i: 0,
    };
    let mut stmts = Vec::new();
    let mut pending_test = false;
    while p.i < p.trees.len() {
        let before = p.i;
        if p.eat_punct(";") {
            continue;
        }
        // Attributes inside bodies.
        if p.peek().is_some_and(|t| t.is_punct("#")) {
            p.i += 1;
            p.eat_punct("!");
            if let Some(Tree::Group(ag)) = p.peek() {
                if ag.delim == Delim::Bracket {
                    if attr_is_test(ag) {
                        pending_test = true;
                    }
                    p.i += 1;
                }
            }
            continue;
        }
        // `let` statements.
        if p.peek().is_some_and(|t| t.is_ident("let")) {
            let line = p.peek().map_or(1, Tree::line);
            p.i += 1;
            let mut names = Vec::new();
            // Pattern until `:`, `=`, or `;` at top depth.
            while let Some(t) = p.peek() {
                if t.is_punct(":") || t.is_punct("=") || t.is_punct(";") {
                    break;
                }
                collect_pattern_idents(t, &mut names);
                p.i += 1;
            }
            let ty = if p.eat_punct(":") {
                Some(p.type_text_until(&["=", ";", "else"]))
            } else {
                None
            };
            let init = if p.eat_punct("=") {
                Some(p.parse_expr(true))
            } else {
                None
            };
            let else_block = if p.eat_ident("else") {
                Some(p.expect_block())
            } else {
                None
            };
            p.eat_punct(";");
            stmts.push(Stmt::Let(LetStmt {
                names,
                ty,
                init,
                else_block,
                line,
            }));
            continue;
        }
        // Nested items.
        if let Some(item) = p.parse_item(pending_test) {
            stmts.push(Stmt::Item(Box::new(item)));
            pending_test = false;
            continue;
        }
        // Expression statement.
        let e = p.parse_expr(true);
        let advanced = p.i > before;
        stmts.push(Stmt::Expr(e));
        p.eat_punct(";");
        if !advanced && p.i == before {
            p.i += 1;
        }
    }
    Block {
        stmts,
        close_line: g.close_line,
    }
}

impl Token {
    /// Is this token the given punctuation text?
    fn is_punct_text(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns_of(file: &File) -> Vec<&FnDef> {
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a FnDef>) {
            for item in items {
                match &item.kind {
                    ItemKind::Fn(def) => out.push(def),
                    ItemKind::Impl { items, .. }
                    | ItemKind::Trait { items, .. }
                    | ItemKind::Mod {
                        items: Some(items), ..
                    } => walk(items, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&file.items, &mut out);
        out
    }

    #[test]
    fn parses_free_and_impl_fns_with_params() {
        let file = parse_file(
            "pub fn free(a: u32, b: &str) -> u32 { a }\n\
             struct S { x: Mutex<u8>, y: Vec<u8> }\n\
             impl S {\n    fn method(&self, n: usize) -> usize { n }\n}\n",
        );
        let fns = fns_of(&file);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params[0], ("a".to_string(), "u32".to_string()));
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].params[0].0, "self");
        let ItemKind::Struct { name, fields } = &file.items[1].kind else {
            panic!("expected struct: {:?}", file.items[1].kind);
        };
        assert_eq!(name, "S");
        assert_eq!(fields[0], ("x".to_string(), "Mutex<u8>".to_string()));
    }

    #[test]
    fn parses_use_groups_and_aliases() {
        let file = parse_file("use std::sync::{Arc, Mutex as Mu};\nuse crate::wal::replay;\n");
        let ItemKind::Use(targets) = &file.items[0].kind else {
            panic!("expected use");
        };
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].path, vec!["std", "sync", "Arc"]);
        assert_eq!(targets[1].local, "Mu");
        assert_eq!(targets[1].path, vec!["std", "sync", "Mutex"]);
        let ItemKind::Use(targets) = &file.items[1].kind else {
            panic!("expected use");
        };
        assert_eq!(targets[0].path, vec!["crate", "wal", "replay"]);
    }

    #[test]
    fn parses_method_chains_calls_and_closures() {
        let file = parse_file(
            "fn f(items: &[u32]) -> Vec<u32> {\n\
                 let doubled = items.iter().map(|x| x * 2).collect::<Vec<_>>();\n\
                 helper(doubled.len());\n\
                 doubled\n\
             }\n",
        );
        let fns = fns_of(&file);
        let body = fns[0].body.as_ref().expect("body");
        let Stmt::Let(let_stmt) = &body.stmts[0] else {
            panic!("expected let");
        };
        assert_eq!(let_stmt.names, vec!["doubled"]);
        let Some(Expr::Chain(chain)) = let_stmt.init.as_ref() else {
            panic!("expected chain init: {:?}", let_stmt.init);
        };
        let methods: Vec<&str> = chain
            .segs
            .iter()
            .filter_map(|s| match s {
                ChainSeg::Method { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(methods, vec!["iter", "map", "collect"]);
        // The map arg is a closure.
        let has_closure = chain.segs.iter().any(|s| {
            matches!(s, ChainSeg::Method { name, args, .. }
                if name == "map" && matches!(args.first(), Some(Expr::Closure(_))))
        });
        assert!(has_closure, "map closure not parsed");
        // helper(…) is a root-path call.
        let Stmt::Expr(Expr::Chain(call)) = &body.stmts[1] else {
            panic!("expected call stmt");
        };
        let ChainRoot::Path(path) = &call.root else {
            panic!("expected path root");
        };
        assert_eq!(path, &vec!["helper".to_string()]);
        assert!(matches!(call.segs.first(), Some(ChainSeg::Call { .. })));
    }

    #[test]
    fn parses_control_flow_and_test_modules() {
        let file = parse_file(
            "fn f(n: usize) {\n\
                 if n > 0 { g(n); } else { h(); }\n\
                 for x in 0..n { g(x); }\n\
                 match n { 0 => g(0), _ if n > 9 => h(), _ => {} }\n\
             }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f(1); }\n}\n",
        );
        assert!(!file.items[0].in_test);
        let ItemKind::Mod {
            items: Some(items), ..
        } = &file.items[1].kind
        else {
            panic!("expected inline mod");
        };
        assert!(file.items[1].in_test || items.iter().all(|i| i.in_test));
    }

    #[test]
    fn parses_trait_impls_and_static_items() {
        let file = parse_file(
            "static POOLS: OnceLock<Mutex<HashMap<usize, u8>>> = OnceLock::new();\n\
             impl<S: Sink> EventSink for Arc<Mutex<S>> {\n\
                 fn on_event(&mut self) { self.lock().expect(\"sink poisoned\"); }\n\
             }\n",
        );
        let ItemKind::Static { name, ty, .. } = &file.items[0].kind else {
            panic!("expected static");
        };
        assert_eq!(name, "POOLS");
        assert!(ty.contains("Mutex"), "static type lost: {ty}");
        let ItemKind::Impl {
            self_ty,
            trait_name,
            items,
        } = &file.items[1].kind
        else {
            panic!("expected impl");
        };
        assert!(self_ty.contains("Arc"), "impl type lost: {self_ty}");
        assert_eq!(trait_name.as_deref(), Some("EventSink"));
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn let_else_and_while_let_do_not_derail() {
        let file = parse_file(
            "fn f(v: Option<u32>) {\n\
                 let Some(x) = v else { return; };\n\
                 while let Some(y) = next() { g(y); }\n\
             }\n",
        );
        let fns = fns_of(&file);
        let body = fns[0].body.as_ref().expect("body");
        let Stmt::Let(l) = &body.stmts[0] else {
            panic!("expected let-else");
        };
        assert_eq!(l.names, vec!["x"]);
        assert!(l.else_block.is_some());
        assert!(matches!(&body.stmts[1], Stmt::Expr(Expr::While { .. })));
    }
}
