//! The query/program parser.
//!
//! Precedence, loosest to tightest (matching the pretty-printer in
//! `ioql-ast`):
//!
//! ```text
//! if … then … else …            (else extends right)
//! or                            (sugar → if)
//! and                           (sugar → if)
//! not                           (sugar → if)
//! union | intersect | except    (left associative)
//! = | == | < | <=               (non-associative)
//! + | -                         (left associative)
//! *                             (left associative)
//! (C) q                         (cast, right)
//! q.name | q.name(args)         (postfix projection / invocation)
//! atoms
//! ```
//!
//! The cast/parenthesis ambiguity — `(C) q` versus `(x) + 1` — is
//! resolved with two tokens of lookahead: `(Ident)` followed by an
//! expression-starting token is a cast.

use crate::error::ParseError;
use crate::lexer::{lex, Spanned, Tok};
use ioql_ast::{Definition, IntOp, Program, Qualifier, Query, SetOp, Type, VarName};

pub(crate) struct Cursor {
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

/// Maximum expression-nesting depth. Recursive descent spends native
/// stack per nesting level, so an adversarial input — `((((…1…))))`,
/// `not not not …`, a tower of casts — could otherwise overflow the
/// stack and abort the process instead of returning a diagnosable
/// error. The cap is far above anything a legitimate query reaches and
/// far below what overflows any supported stack size — one grammar
/// level costs about a dozen native frames (`expr` through `atom`), so
/// the cap must clear even a 2 MiB test-thread stack in debug builds
/// with room to spare.
const MAX_DEPTH: usize = 64;

impl Cursor {
    pub(crate) fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Cursor {
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Enters one nesting level of the expression grammar, failing with
    /// a line-accurate diagnostic (positioned at the token that opened
    /// the level) once [`MAX_DEPTH`] is exceeded.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("expression nesting exceeds {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn exit(&mut self) {
        self.depth -= 1;
    }

    pub(crate) fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    pub(crate) fn peek_at(&self, k: usize) -> &Tok {
        let i = (self.pos + k).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    pub(crate) fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let s = &self.toks[self.pos];
        Err(ParseError::new(s.line, s.col, msg))
    }

    pub(crate) fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{t}`, found `{}`", self.peek()))
        }
    }

    pub(crate) fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == &t {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found `{other}`")),
        }
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }
}

fn starts_expr(t: &Tok) -> bool {
    matches!(
        t,
        Tok::Int(_)
            | Tok::Ident(_)
            | Tok::True
            | Tok::False
            | Tok::LParen
            | Tok::LBrace
            | Tok::New
            | Tok::Size
            | Tok::SumKw
            | Tok::Struct
            | Tok::Select
            | Tok::Not
            | Tok::Minus
            | Tok::If
    )
}

/// Parses a type: `int`, `bool`, `set(σ)`, `struct(l: σ, …)`, or a class
/// name.
pub fn parse_type(input: &str) -> Result<Type, ParseError> {
    let mut c = Cursor::new(input)?;
    let t = ty(&mut c)?;
    if !c.at_eof() {
        return c.err("trailing input after type");
    }
    Ok(t)
}

pub(crate) fn ty(c: &mut Cursor) -> Result<Type, ParseError> {
    match c.peek().clone() {
        Tok::TyInt => {
            c.bump();
            Ok(Type::Int)
        }
        Tok::TyBool => {
            c.bump();
            Ok(Type::Bool)
        }
        Tok::TySet => {
            c.bump();
            c.expect(Tok::LParen)?;
            let inner = ty(c)?;
            c.expect(Tok::RParen)?;
            Ok(Type::set(inner))
        }
        Tok::Struct => {
            c.bump();
            c.expect(Tok::LParen)?;
            let mut fields = Vec::new();
            if !c.eat(Tok::RParen) {
                loop {
                    let l = c.ident()?;
                    c.expect(Tok::Colon)?;
                    fields.push((l, ty(c)?));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen)?;
            }
            Ok(Type::record(fields))
        }
        Tok::Ident(name) => {
            c.bump();
            Ok(Type::class(name))
        }
        other => c.err(format!("expected a type, found `{other}`")),
    }
}

/// Parses a single query expression.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut c = Cursor::new(input)?;
    let q = expr(&mut c)?;
    if !c.at_eof() {
        return c.err("trailing input after query");
    }
    Ok(q)
}

/// Parses a sequence of `define …;` forms (no trailing query).
pub fn parse_definitions(input: &str) -> Result<Vec<Definition>, ParseError> {
    let mut c = Cursor::new(input)?;
    let defs = definitions(&mut c)?;
    if !c.at_eof() {
        return c.err("trailing input after definitions");
    }
    Ok(defs)
}

/// Parses a full program: `define …;`* followed by a query.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    let mut c = Cursor::new(input)?;
    let defs = definitions(&mut c)?;
    let query = expr(&mut c)?;
    if !c.at_eof() {
        return c.err("trailing input after program");
    }
    Ok(Program::new(defs, query))
}

fn definitions(c: &mut Cursor) -> Result<Vec<Definition>, ParseError> {
    let mut defs = Vec::new();
    while c.peek() == &Tok::Define {
        c.bump();
        let name = c.ident()?;
        c.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !c.eat(Tok::RParen) {
            loop {
                let x = c.ident()?;
                c.expect(Tok::Colon)?;
                let t = ty(c)?;
                params.push((VarName::new(x), t));
                if !c.eat(Tok::Comma) {
                    break;
                }
            }
            c.expect(Tok::RParen)?;
        }
        c.expect(Tok::As)?;
        let body = expr(c)?;
        c.expect(Tok::Semi)?;
        defs.push(Definition::new(name, params, body));
    }
    Ok(defs)
}

pub(crate) fn expr(c: &mut Cursor) -> Result<Query, ParseError> {
    c.enter()?;
    let r = expr_inner(c);
    c.exit();
    r
}

fn expr_inner(c: &mut Cursor) -> Result<Query, ParseError> {
    if c.peek() == &Tok::If {
        c.bump();
        let cond = or_expr(c)?;
        c.expect(Tok::Then)?;
        let then = or_expr(c)?;
        c.expect(Tok::Else)?;
        let els = expr(c)?;
        return Ok(Query::ite(cond, then, els));
    }
    or_expr(c)
}

fn or_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut l = and_expr(c)?;
    while c.eat(Tok::Or) {
        let r = and_expr(c)?;
        l = l.or(r);
    }
    Ok(l)
}

fn and_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut l = not_expr(c)?;
    while c.eat(Tok::And) {
        let r = not_expr(c)?;
        l = l.and(r);
    }
    Ok(l)
}

fn not_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    // Self-recursive without passing through `expr` — guarded itself,
    // but only when a `not` actually nests (this function is on every
    // precedence chain; charging unconditionally would double-count).
    if c.eat(Tok::Not) {
        c.enter()?;
        let r = not_expr(c).map(Query::not);
        c.exit();
        r
    } else {
        set_expr(c)
    }
}

fn set_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut l = cmp_expr(c)?;
    loop {
        let op = match c.peek() {
            Tok::Union => SetOp::Union,
            Tok::Intersect => SetOp::Intersect,
            Tok::Except => SetOp::Diff,
            _ => break,
        };
        c.bump();
        let r = cmp_expr(c)?;
        l = Query::SetBin(op, Box::new(l), Box::new(r));
    }
    Ok(l)
}

fn cmp_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let l = add_expr(c)?;
    let make = |op: Tok, l: Query, r: Query| match op {
        Tok::Eq => Query::IntEq(Box::new(l), Box::new(r)),
        Tok::EqEq => Query::ObjEq(Box::new(l), Box::new(r)),
        Tok::Lt => Query::IntBin(IntOp::Lt, Box::new(l), Box::new(r)),
        Tok::Le => Query::IntBin(IntOp::Le, Box::new(l), Box::new(r)),
        _ => unreachable!(),
    };
    match c.peek() {
        Tok::Eq | Tok::EqEq | Tok::Lt | Tok::Le => {
            let op = c.bump();
            let r = add_expr(c)?;
            Ok(make(op, l, r))
        }
        _ => Ok(l),
    }
}

fn add_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut l = mul_expr(c)?;
    loop {
        let op = match c.peek() {
            Tok::Plus => IntOp::Add,
            Tok::Minus => IntOp::Sub,
            _ => break,
        };
        c.bump();
        let r = mul_expr(c)?;
        l = Query::IntBin(op, Box::new(l), Box::new(r));
    }
    Ok(l)
}

fn mul_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut l = cast_expr(c)?;
    while c.eat(Tok::Star) {
        let r = cast_expr(c)?;
        l = Query::IntBin(IntOp::Mul, Box::new(l), Box::new(r));
    }
    Ok(l)
}

fn cast_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    // `(Ident)` followed by an expression start is a cast. A cast tower
    // recurses here without passing through `expr` — guarded itself.
    if c.peek() == &Tok::LParen {
        if let Tok::Ident(name) = c.peek_at(1).clone() {
            if c.peek_at(2) == &Tok::RParen && starts_expr(c.peek_at(3)) {
                c.enter()?;
                c.bump();
                c.bump();
                c.bump();
                let inner = cast_expr(c);
                c.exit();
                return Ok(inner?.cast(name));
            }
        }
    }
    postfix_expr(c)
}

fn postfix_expr(c: &mut Cursor) -> Result<Query, ParseError> {
    let mut q = atom(c)?;
    while c.eat(Tok::Dot) {
        let name = c.ident()?;
        if c.peek() == &Tok::LParen {
            c.bump();
            let mut args = Vec::new();
            if !c.eat(Tok::RParen) {
                loop {
                    args.push(expr(c)?);
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen)?;
            }
            q = q.invoke(name, args);
        } else {
            // A projection — record field or attribute; the elaborating
            // type checker resolves which.
            q = q.field(name);
        }
    }
    Ok(q)
}

fn atom(c: &mut Cursor) -> Result<Query, ParseError> {
    match c.peek().clone() {
        Tok::Int(i) => {
            c.bump();
            Ok(Query::int(i))
        }
        Tok::Minus => {
            c.bump();
            match c.peek().clone() {
                Tok::Int(i) => {
                    c.bump();
                    Ok(Query::int(-i))
                }
                _ => c.err("expected an integer after `-`"),
            }
        }
        Tok::True => {
            c.bump();
            Ok(Query::bool(true))
        }
        Tok::False => {
            c.bump();
            Ok(Query::bool(false))
        }
        Tok::If => expr(c),
        Tok::Ident(name) => {
            c.bump();
            if c.peek() == &Tok::LParen {
                // Definition call d(args).
                c.bump();
                let mut args = Vec::new();
                if !c.eat(Tok::RParen) {
                    loop {
                        args.push(expr(c)?);
                        if !c.eat(Tok::Comma) {
                            break;
                        }
                    }
                    c.expect(Tok::RParen)?;
                }
                Ok(Query::call(name, args))
            } else {
                Ok(Query::var(name))
            }
        }
        Tok::LParen => {
            c.bump();
            let q = expr(c)?;
            c.expect(Tok::RParen)?;
            Ok(q)
        }
        Tok::LBrace => {
            c.bump();
            if c.eat(Tok::RBrace) {
                return Ok(Query::set_lit([]));
            }
            let first = expr(c)?;
            if c.eat(Tok::Pipe) {
                // Comprehension.
                let mut quals = Vec::new();
                if c.peek() != &Tok::RBrace {
                    loop {
                        quals.push(qualifier(c)?);
                        if !c.eat(Tok::Comma) {
                            break;
                        }
                    }
                }
                c.expect(Tok::RBrace)?;
                Ok(Query::comp(first, quals))
            } else {
                // Set literal.
                let mut items = vec![first];
                while c.eat(Tok::Comma) {
                    items.push(expr(c)?);
                }
                c.expect(Tok::RBrace)?;
                Ok(Query::SetLit(items))
            }
        }
        Tok::Struct => {
            c.bump();
            c.expect(Tok::LParen)?;
            let mut fields = Vec::new();
            if !c.eat(Tok::RParen) {
                loop {
                    let l = c.ident()?;
                    c.expect(Tok::Colon)?;
                    fields.push((l, expr(c)?));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen)?;
            }
            Ok(Query::record(fields))
        }
        Tok::New => {
            c.bump();
            let class = c.ident()?;
            c.expect(Tok::LParen)?;
            let mut attrs = Vec::new();
            if !c.eat(Tok::RParen) {
                loop {
                    let a = c.ident()?;
                    c.expect(Tok::Colon)?;
                    attrs.push((a, expr(c)?));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen)?;
            }
            Ok(Query::new_obj(class, attrs))
        }
        Tok::Size => {
            c.bump();
            c.expect(Tok::LParen)?;
            let q = expr(c)?;
            c.expect(Tok::RParen)?;
            Ok(q.size_of())
        }
        Tok::SumKw => {
            c.bump();
            c.expect(Tok::LParen)?;
            let q = expr(c)?;
            c.expect(Tok::RParen)?;
            Ok(q.sum_of())
        }
        Tok::Group => {
            // OQL grouping, desugared entirely within the core calculus —
            // set semantics collapses duplicate groups:
            //   group x in q by k
            //     ≡ { struct(key: k[x:=w], part: { x | x <- q, k = k[x:=w] })
            //         | w <- q }
            // We keep `x` as the inner binder and introduce a witness
            // binder `w` for the outer iteration: the first of
            // `x__witness`, `x__witness1`, … that is neither free in `q`
            // or `k` (`w` would capture it) nor bound in `k` (that binder
            // would capture `w` in `k[x:=w]`). The key expression must be
            // integer-typed (grouping compares with `=`).
            c.bump();
            let x = c.ident()?;
            c.expect(Tok::In)?;
            let src = expr(c)?;
            c.expect(Tok::By)?;
            let key = expr(c)?;
            let xv = VarName::new(&x);
            let mut taken = &src.free_vars() | &key.free_vars();
            key.for_each_node(&mut |n| {
                if let Query::Comp(_, quals) = n {
                    taken.extend(quals.iter().filter_map(|cq| cq.binder().cloned()));
                }
            });
            let mut wv = VarName::new(format!("{x}__witness"));
            for i in 1.. {
                if !taken.contains(&wv) {
                    break;
                }
                wv = VarName::new(format!("{x}__witness{i}"));
            }
            let key_w = key.replace_var(&xv, &Query::Var(wv.clone()));
            let part = Query::comp(
                Query::Var(xv.clone()),
                [
                    Qualifier::Gen(xv, src.clone()),
                    Qualifier::Pred(key.clone().int_eq(key_w.clone())),
                ],
            );
            let head = Query::record([("key", key_w), ("part", part)]);
            Ok(Query::comp(head, [Qualifier::Gen(wv, src)]))
        }
        Tok::Exists | Tok::Forall => {
            // OQL quantifiers, desugared through comprehensions over the
            // singleton-or-empty set {1 | x <- q, p}:
            //   exists x in q : p   ≡   size({1 | x <- q, p}) = 1
            //   forall x in q : p   ≡   size({1 | x <- q, not p}) = 0
            let is_exists = matches!(c.bump(), Tok::Exists);
            let x = c.ident()?;
            c.expect(Tok::In)?;
            let src = expr(c)?;
            c.expect(Tok::Colon)?;
            let p = expr(c)?;
            let pred = if is_exists { p } else { p.not() };
            let witness = Query::comp(
                Query::int(1),
                [Qualifier::Gen(VarName::new(x), src), Qualifier::Pred(pred)],
            );
            let count = witness.size_of();
            Ok(if is_exists {
                count.int_eq(Query::int(1))
            } else {
                count.int_eq(Query::int(0))
            })
        }
        Tok::Select => {
            // select h from x in e (, y in e')* (where p)?
            // desugars to { h | x <- e, y <- e', p }.
            c.bump();
            let head = expr(c)?;
            c.expect(Tok::From)?;
            let mut quals = Vec::new();
            loop {
                let x = c.ident()?;
                c.expect(Tok::In)?;
                let src = expr(c)?;
                quals.push(Qualifier::Gen(VarName::new(x), src));
                if !c.eat(Tok::Comma) {
                    break;
                }
            }
            if c.eat(Tok::Where) {
                quals.push(Qualifier::Pred(expr(c)?));
            }
            Ok(Query::comp(head, quals))
        }
        other => c.err(format!("expected an expression, found `{other}`")),
    }
}

fn qualifier(c: &mut Cursor) -> Result<Qualifier, ParseError> {
    // `Ident <-` begins a generator; anything else is a predicate.
    if let Tok::Ident(name) = c.peek().clone() {
        if c.peek_at(1) == &Tok::Arrow {
            c.bump();
            c.bump();
            let src = expr(c)?;
            return Ok(Qualifier::Gen(VarName::new(name), src));
        }
    }
    Ok(Qualifier::Pred(expr(c)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(parse_query("1 + 2 * 3").unwrap(), {
            Query::int(1).add(Query::IntBin(
                IntOp::Mul,
                Box::new(Query::int(2)),
                Box::new(Query::int(3)),
            ))
        });
        assert_eq!(parse_query("-5").unwrap(), Query::int(-5));
        assert_eq!(parse_query("(1 + 2) * 3").unwrap(), {
            Query::IntBin(
                IntOp::Mul,
                Box::new(Query::int(1).add(Query::int(2))),
                Box::new(Query::int(3)),
            )
        });
    }

    #[test]
    fn comparisons_and_equalities() {
        assert_eq!(
            parse_query("x = 1").unwrap(),
            Query::var("x").int_eq(Query::int(1))
        );
        assert_eq!(
            parse_query("x == y").unwrap(),
            Query::var("x").obj_eq(Query::var("y"))
        );
        assert!(matches!(
            parse_query("x < 1").unwrap(),
            Query::IntBin(IntOp::Lt, _, _)
        ));
    }

    #[test]
    fn set_literals_and_ops() {
        assert_eq!(
            parse_query("{1, 2}").unwrap(),
            Query::set_lit([Query::int(1), Query::int(2)])
        );
        assert_eq!(parse_query("{}").unwrap(), Query::set_lit([]));
        assert_eq!(
            parse_query("a union b intersect c").unwrap(),
            Query::var("a")
                .union(Query::var("b"))
                .intersect(Query::var("c"))
        );
    }

    #[test]
    fn comprehension_forms() {
        let q = parse_query("{ x.name | x <- Ps, x.age = 3 }").unwrap();
        assert_eq!(
            q,
            Query::comp(
                Query::var("x").field("name"),
                [
                    Qualifier::Gen(VarName::new("x"), Query::var("Ps")),
                    Qualifier::Pred(Query::var("x").field("age").int_eq(Query::int(3))),
                ]
            )
        );
        // Empty qualifier list.
        assert_eq!(
            parse_query("{ 1 | }").unwrap(),
            Query::comp(Query::int(1), [])
        );
    }

    #[test]
    fn select_from_where_sugar() {
        let a = parse_query("select x.name from x in Ps where x.age = 3").unwrap();
        let b = parse_query("{ x.name | x <- Ps, x.age = 3 }").unwrap();
        assert_eq!(a, b);
        // Multiple generators.
        let c = parse_query("select 1 from x in Ps, y in Qs").unwrap();
        let d = parse_query("{ 1 | x <- Ps, y <- Qs }").unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn boolean_sugar() {
        let q = parse_query("true and false").unwrap();
        assert_eq!(q, Query::bool(true).and(Query::bool(false)));
        let q = parse_query("not true").unwrap();
        assert_eq!(q, Query::bool(true).not());
        let q = parse_query("true or false and true").unwrap();
        // and binds tighter than or.
        assert_eq!(
            q,
            Query::bool(true).or(Query::bool(false).and(Query::bool(true)))
        );
    }

    #[test]
    fn cast_vs_parens() {
        assert_eq!(
            parse_query("(Person) p").unwrap(),
            Query::var("p").cast("Person")
        );
        assert_eq!(
            parse_query("(p) + 1").unwrap(),
            Query::var("p").add(Query::int(1))
        );
        assert_eq!(parse_query("(p)").unwrap(), Query::var("p"));
    }

    #[test]
    fn new_struct_size_invoke() {
        assert_eq!(
            parse_query("new F(name: 1)").unwrap(),
            Query::new_obj("F", [("name", Query::int(1))])
        );
        assert_eq!(
            parse_query("struct(a: 1, b: true)").unwrap(),
            Query::record([("a", Query::int(1)), ("b", Query::bool(true))])
        );
        assert_eq!(parse_query("size(Ps)").unwrap(), Query::var("Ps").size_of());
        assert_eq!(
            parse_query("e.NetSalary(40)").unwrap(),
            Query::var("e").invoke("NetSalary", [Query::int(40)])
        );
        assert_eq!(
            parse_query("d(1, 2)").unwrap(),
            Query::call("d", [Query::int(1), Query::int(2)])
        );
    }

    #[test]
    fn if_then_else_right_extends() {
        let q = parse_query("if true then 1 else if false then 2 else 3").unwrap();
        assert_eq!(
            q,
            Query::ite(
                Query::bool(true),
                Query::int(1),
                Query::ite(Query::bool(false), Query::int(2), Query::int(3))
            )
        );
    }

    #[test]
    fn program_with_definitions() {
        let p = parse_program(
            "define inc(x: int) as x + 1;\n\
             define pals(s: set(int)) as { inc(y) | y <- s };\n\
             pals({1, 2})",
        )
        .unwrap();
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.defs[0].name, ioql_ast::DefName::new("inc"));
        assert_eq!(p.defs[1].params[0].1, Type::set(Type::Int));
        assert_eq!(
            p.query,
            Query::call("pals", [Query::set_lit([Query::int(1), Query::int(2)])])
        );
    }

    #[test]
    fn types_parse() {
        assert_eq!(parse_type("int").unwrap(), Type::Int);
        assert_eq!(parse_type("set(set(bool))").unwrap(), {
            Type::set(Type::set(Type::Bool))
        });
        assert_eq!(
            parse_type("struct(a: int, b: Person)").unwrap(),
            Type::record([("a", Type::Int), ("b", Type::class("Person"))])
        );
        assert_eq!(parse_type("Person").unwrap(), Type::class("Person"));
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_query("1 +").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected an expression"));
        let e = parse_query("{1, }").unwrap_err();
        assert!(e.col > 1);
    }

    #[test]
    fn adversarial_nesting_errors_instead_of_overflowing() {
        // 100k open parens must come back as a parse error, not blow
        // the native stack and abort the process.
        let deep = "(".repeat(100_000) + "1" + &")".repeat(100_000);
        let e = parse_query(&deep).unwrap_err();
        assert!(
            e.message.contains("nesting exceeds"),
            "diagnosis names the depth cap: {}",
            e.message
        );
        // The guard also covers the recursions that bypass `expr`:
        // `not` towers and cast towers.
        let nots = "not ".repeat(100_000) + "true";
        assert!(parse_query(&nots)
            .unwrap_err()
            .message
            .contains("nesting exceeds"));
        let casts = "(C)".repeat(100_000) + "x";
        assert!(parse_query(&casts)
            .unwrap_err()
            .message
            .contains("nesting exceeds"));
        // …and a mixed `if` ladder through set literals.
        let ifs = "{ if true then ".repeat(50_000) + "1" + &" else 2 }".repeat(50_000);
        assert!(parse_query(&ifs).is_err());
    }

    #[test]
    fn depth_diagnostic_is_line_accurate() {
        // Nesting spread over lines: the error points at the line (and
        // column) where the one-too-deep level opens, not at line 1.
        let levels = super::MAX_DEPTH + 1;
        let deep = "(\n".repeat(levels) + "1" + &")".repeat(levels);
        let e = parse_query(&deep).unwrap_err();
        assert_eq!(
            e.line, levels,
            "the diagnostic points at the paren that broke the cap"
        );
        assert!(e.message.contains("nesting exceeds"));
    }

    #[test]
    fn deep_but_legal_nesting_still_parses() {
        // Real queries never get close to the cap; a comfortably deep
        // expression stays accepted.
        let deep = "(".repeat(48) + "1" + &")".repeat(48);
        assert_eq!(parse_query(&deep).unwrap(), Query::int(1));
        let nots = "not ".repeat(48) + "true";
        assert!(parse_query(&nots).is_ok());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_query("1 2").is_err());
        assert!(parse_program("define f() as 1; 2 extra").is_err());
    }

    #[test]
    fn quantifier_sugar() {
        // exists desugars to a size-of-witness-set comparison.
        let q = parse_query("exists x in Ps : x.age = 3").unwrap();
        let expected = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(VarName::new("x"), Query::var("Ps")),
                Qualifier::Pred(Query::var("x").field("age").int_eq(Query::int(3))),
            ],
        )
        .size_of()
        .int_eq(Query::int(1));
        assert_eq!(q, expected);

        // forall negates the predicate and demands zero witnesses.
        let q2 = parse_query("forall x in Ps : x.age = 3").unwrap();
        let expected2 = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(VarName::new("x"), Query::var("Ps")),
                Qualifier::Pred(Query::var("x").field("age").int_eq(Query::int(3)).not()),
            ],
        )
        .size_of()
        .int_eq(Query::int(0));
        assert_eq!(q2, expected2);
    }

    #[test]
    fn sum_parses() {
        assert_eq!(
            parse_query("sum({1, 2, 3})").unwrap(),
            Query::set_lit([Query::int(1), Query::int(2), Query::int(3)]).sum_of()
        );
    }

    #[test]
    fn group_by_sugar() {
        let q = parse_query("group p in Ps by p.age").unwrap();
        // Shape: { struct(key: w.age, part: { p | p <- Ps, p.age = w.age })
        //          | w <- Ps } with w the fresh witness.
        let Query::Comp(head, quals) = &q else {
            panic!("expected comprehension");
        };
        assert_eq!(quals.len(), 1);
        assert!(matches!(
            &quals[0],
            Qualifier::Gen(w, _) if w.as_str() == "p__witness"
        ));
        let Query::Record(fields) = &**head else {
            panic!("expected record head");
        };
        assert_eq!(fields[0].0.as_str(), "key");
        assert_eq!(fields[1].0.as_str(), "part");
        assert!(matches!(fields[1].1, Query::Comp(_, _)));
    }

    #[test]
    fn paper_intro_query_parses() {
        // The §1 example, in concrete syntax.
        let src = "{ f.name | f <- Fs } union \
                   { (new F(name: p.name, pal: p)).name | p <- Ps }";
        let q = parse_query(src).unwrap();
        assert!(matches!(q, Query::SetBin(SetOp::Union, _, _)));
    }
}
