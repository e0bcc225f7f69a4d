//! Regular expressions over arbitrary alphabets.
//!
//! The global constraints of an extended register automaton are regular
//! expressions over the automaton's *states* (Section 3), e.g. Example 5's
//! `e=₁₁ = p₁ p₂* p₁`. This module provides the expression AST and a parser
//! for the whitespace-separated textual form (`"p1 p2* p1"`).

use crate::Letter;
use std::fmt;

/// A regular expression over letters of type `L`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Regex<L> {
    /// The empty language `∅`.
    Empty,
    /// The empty word `ε`.
    Epsilon,
    /// A single letter.
    Sym(L),
    /// Concatenation, in order.
    Concat(Vec<Regex<L>>),
    /// Alternation (union).
    Alt(Vec<Regex<L>>),
    /// Kleene star.
    Star(Box<Regex<L>>),
}

impl<L: Letter> Regex<L> {
    /// `r+` as a derived form: `r · r*`.
    pub fn plus(r: Regex<L>) -> Regex<L> {
        Regex::Concat(vec![r.clone(), Regex::Star(Box::new(r))])
    }

    /// `r?` as a derived form: `r | ε`.
    pub fn opt(r: Regex<L>) -> Regex<L> {
        Regex::Alt(vec![r, Regex::Epsilon])
    }

    /// The union of single letters (character class).
    pub fn any_of(letters: impl IntoIterator<Item = L>) -> Regex<L> {
        let alts: Vec<Regex<L>> = letters.into_iter().map(Regex::Sym).collect();
        if alts.is_empty() {
            Regex::Empty
        } else {
            Regex::Alt(alts)
        }
    }

    /// Concatenation of a sequence of letters (a word).
    pub fn word(letters: impl IntoIterator<Item = L>) -> Regex<L> {
        let parts: Vec<Regex<L>> = letters.into_iter().map(Regex::Sym).collect();
        if parts.is_empty() {
            Regex::Epsilon
        } else {
            Regex::Concat(parts)
        }
    }

    /// All letters mentioned by the expression.
    pub fn letters(&self) -> Vec<L> {
        let mut out = Vec::new();
        self.collect_letters(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Number of nodes of the syntax tree.
    fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) => 1 + inner.size(),
        }
    }

    fn collect_letters(&self, out: &mut Vec<L>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(l) => out.push(l.clone()),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.collect_letters(out);
                }
            }
            Regex::Star(inner) => inner.collect_letters(out),
        }
    }

    /// Maps letters through `f`.
    pub fn map<M: Letter>(&self, f: &impl Fn(&L) -> M) -> Regex<M> {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(l) => Regex::Sym(f(l)),
            Regex::Concat(parts) => Regex::Concat(parts.iter().map(|p| p.map(f)).collect()),
            Regex::Alt(parts) => Regex::Alt(parts.iter().map(|p| p.map(f)).collect()),
            Regex::Star(inner) => Regex::Star(Box::new(inner.map(f))),
        }
    }
}

/// Errors from [`Regex::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegexParseError {
    /// An identifier could not be resolved to a letter.
    UnknownSymbol(String),
    /// Unbalanced parenthesis or dangling operator.
    Syntax(String),
}

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegexParseError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
            RegexParseError::Syntax(s) => write!(f, "syntax error: {s}"),
        }
    }
}

impl std::error::Error for RegexParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Ident(String),
    LParen,
    RParen,
    Pipe,
    Star,
    Plus,
    Question,
}

fn tokenize(input: &str) -> Result<Vec<Token>, RegexParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '|' => {
                chars.next();
                tokens.push(Token::Pipe);
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            '+' => {
                chars.next();
                tokens.push(Token::Plus);
            }
            '?' => {
                chars.next();
                tokens.push(Token::Question);
            }
            c if c.is_alphanumeric() || c == '_' || c == '\'' => {
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '\'' {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(ident));
            }
            other => {
                return Err(RegexParseError::Syntax(format!(
                    "unexpected character `{other}`"
                )))
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a, L, F> {
    tokens: &'a [Token],
    pos: usize,
    /// Groups open around the cursor.
    depth: usize,
    /// Syntax-tree nodes `+` has copied so far.
    copied: usize,
    resolve: F,
    _marker: std::marker::PhantomData<L>,
}

impl<'a, L: Letter, F: Fn(&str) -> Option<L>> Parser<'a, L, F> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    // Every rule returns its expression with its nesting: the most groups
    // and postfix operators on one path down its syntax tree. The parser
    // and every later walk of the tree recurse once per level, so
    // `postfix` and `atom` stop at `MAX_NESTING`.

    // alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<(Regex<L>, usize), RegexParseError> {
        let (first, mut nesting) = self.concat()?;
        let mut parts = vec![first];
        while self.peek() == Some(&Token::Pipe) {
            self.next();
            let (part, n) = self.concat()?;
            nesting = nesting.max(n);
            parts.push(part);
        }
        Ok(if parts.len() == 1 {
            (parts.pop().expect("non-empty"), nesting)
        } else {
            (Regex::Alt(parts), nesting)
        })
    }

    // concat := postfix+  (empty concat = epsilon)
    fn concat(&mut self) -> Result<(Regex<L>, usize), RegexParseError> {
        let (mut parts, mut nesting) = (Vec::new(), 0);
        while matches!(self.peek(), Some(Token::Ident(_)) | Some(Token::LParen)) {
            let (part, n) = self.postfix()?;
            nesting = nesting.max(n);
            parts.push(part);
        }
        let r = match parts.len() {
            0 => Regex::Epsilon,
            1 => parts.pop().expect("non-empty"),
            _ => Regex::Concat(parts),
        };
        Ok((r, nesting))
    }

    // postfix := atom ('*' | '+' | '?')*
    fn postfix(&mut self) -> Result<(Regex<L>, usize), RegexParseError> {
        let (mut r, mut nesting) = self.atom()?;
        loop {
            match self.peek() {
                Some(Token::Star) => r = Regex::Star(Box::new(r)),
                Some(Token::Plus) => {
                    // `r+` is `r r*`, a copy of `r`: a chain of `+` doubles
                    // the tree at each step.
                    self.copied += r.size();
                    if self.copied > MAX_COPIED {
                        return Err(RegexParseError::Syntax(format!(
                            "`+` copies more than {MAX_COPIED} nodes"
                        )));
                    }
                    r = Regex::plus(r);
                }
                Some(Token::Question) => r = Regex::opt(r),
                _ => break,
            }
            self.next();
            nesting = nested(nesting)?;
        }
        Ok((r, nesting))
    }

    fn atom(&mut self) -> Result<(Regex<L>, usize), RegexParseError> {
        match self.next().cloned() {
            Some(Token::Ident(name)) => (self.resolve)(&name)
                .map(|l| (Regex::Sym(l), 0))
                .ok_or(RegexParseError::UnknownSymbol(name)),
            Some(Token::LParen) => {
                // Checked before descending: the group's parse recurses.
                self.depth = nested(self.depth)?;
                let (inner, n) = self.alternation()?;
                self.depth -= 1;
                match self.next() {
                    Some(Token::RParen) => Ok((inner, nested(n)?)),
                    _ => Err(RegexParseError::Syntax("expected `)`".into())),
                }
            }
            other => Err(RegexParseError::Syntax(format!(
                "unexpected token {other:?}"
            ))),
        }
    }
}

/// The deepest nesting of groups and postfix operators [`Regex::parse`]
/// accepts.
const MAX_NESTING: usize = 128;

/// The most syntax-tree nodes the `+` operators of one expression copy.
const MAX_COPIED: usize = 1 << 16;

/// One level deeper than `nesting`, or an error past [`MAX_NESTING`].
fn nested(nesting: usize) -> Result<usize, RegexParseError> {
    if nesting == MAX_NESTING {
        return Err(RegexParseError::Syntax(format!(
            "nesting deeper than {MAX_NESTING}"
        )));
    }
    Ok(nesting + 1)
}

impl<L: Letter> Regex<L> {
    /// Parses a textual regular expression whose atoms are identifiers
    /// resolved through `resolve` (typically state names of an automaton).
    ///
    /// Grammar: alternation `|`, postfix `*` `+` `?`, grouping `( )`,
    /// juxtaposition for concatenation. Example: `"p1 p2* p1"`.
    pub fn parse(
        input: &str,
        resolve: impl Fn(&str) -> Option<L>,
    ) -> Result<Self, RegexParseError> {
        let tokens = tokenize(input)?;
        let mut p = Parser {
            tokens: &tokens,
            pos: 0,
            depth: 0,
            copied: 0,
            resolve,
            _marker: std::marker::PhantomData,
        };
        let (r, _) = p.alternation()?;
        if p.pos != tokens.len() {
            return Err(RegexParseError::Syntax("trailing input".into()));
        }
        Ok(r)
    }
}

impl<L: Letter> Regex<L> {
    /// Renders the expression with a custom symbol formatter (the `Display`
    /// impl renders symbols with `Debug`, which quotes strings).
    pub fn render(&self, sym: &impl Fn(&L) -> String) -> String {
        match self {
            Regex::Empty => "∅".to_string(),
            Regex::Epsilon => "ε".to_string(),
            Regex::Sym(l) => sym(l),
            Regex::Concat(parts) => parts
                .iter()
                .map(|p| {
                    if matches!(p, Regex::Alt(_)) {
                        format!("({})", p.render(sym))
                    } else {
                        p.render(sym)
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
            Regex::Alt(parts) => parts
                .iter()
                .map(|p| p.render(sym))
                .collect::<Vec<_>>()
                .join("|"),
            Regex::Star(inner) => {
                if matches!(**inner, Regex::Sym(_) | Regex::Epsilon | Regex::Empty) {
                    format!("{}*", inner.render(sym))
                } else {
                    format!("({})*", inner.render(sym))
                }
            }
        }
    }
}

impl<L: fmt::Debug> fmt::Display for Regex<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => write!(f, "∅"),
            Regex::Epsilon => write!(f, "ε"),
            Regex::Sym(l) => write!(f, "{l:?}"),
            Regex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    if matches!(p, Regex::Alt(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Regex::Alt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Regex::Star(inner) => {
                if matches!(**inner, Regex::Sym(_) | Regex::Epsilon | Regex::Empty) {
                    write!(f, "{inner}*")
                } else {
                    write!(f, "({inner})*")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(s: &str) -> Option<u32> {
        s.strip_prefix('p').and_then(|n| n.parse().ok())
    }

    #[test]
    fn parse_example5() {
        let r = Regex::parse("p1 p2* p1", resolve).unwrap();
        assert_eq!(
            r,
            Regex::Concat(vec![
                Regex::Sym(1),
                Regex::Star(Box::new(Regex::Sym(2))),
                Regex::Sym(1)
            ])
        );
    }

    #[test]
    fn parse_alternation_and_groups() {
        let r = Regex::parse("(p1 | p2)+ p3?", resolve).unwrap();
        assert_eq!(r.letters(), vec![1, 2, 3]);
    }

    #[test]
    fn parse_unknown_symbol() {
        assert_eq!(
            Regex::parse("q1", resolve),
            Err(RegexParseError::UnknownSymbol("q1".into()))
        );
    }

    #[test]
    fn parse_unbalanced() {
        assert!(Regex::parse("(p1", resolve).is_err());
        assert!(Regex::parse("p1)", resolve).is_err());
    }

    #[test]
    fn parse_empty_is_epsilon() {
        assert_eq!(Regex::parse("", resolve).unwrap(), Regex::<u32>::Epsilon);
    }

    #[test]
    fn map_letters() {
        let r = Regex::parse("p1 p2*", resolve).unwrap();
        let m = r.map(&|l| l + 10);
        assert_eq!(m.letters(), vec![11, 12]);
    }

    #[test]
    fn word_and_any_of() {
        assert_eq!(
            Regex::word([1u32, 2]),
            Regex::Concat(vec![Regex::Sym(1), Regex::Sym(2)])
        );
        assert_eq!(Regex::<u32>::any_of([]), Regex::Empty);
    }

    #[test]
    fn display_roundtrips_shape() {
        let r: Regex<u32> = Regex::parse("p1 (p2|p3)* p1", resolve).unwrap();
        let s = r.to_string();
        assert!(s.contains('*'));
        assert!(s.contains('|'));
    }

    #[test]
    fn nesting_stops_at_the_cap() {
        let groups = |n: usize| "(".repeat(n) + "p1" + &")".repeat(n);
        assert!(Regex::parse(&groups(MAX_NESTING), resolve).is_ok());
        assert!(Regex::parse(&("p1".to_string() + &"*".repeat(MAX_NESTING)), resolve).is_ok());
        let too_deep = Err(RegexParseError::Syntax(format!(
            "nesting deeper than {MAX_NESTING}"
        )));
        assert_eq!(Regex::parse(&groups(MAX_NESTING + 1), resolve), too_deep);
        let stars = "p1".to_string() + &"*".repeat(MAX_NESTING + 1);
        assert_eq!(Regex::parse(&stars, resolve), too_deep);
        // Groups and postfix operators on one path add up.
        let mixed = "(p1*)*".to_string() + &"?".repeat(MAX_NESTING - 2);
        assert_eq!(Regex::parse(&mixed, resolve), too_deep);
        assert_eq!(Regex::parse(&"(".repeat(20_000), resolve), too_deep);
    }

    #[test]
    fn plus_chains_stop_before_the_tree_explodes() {
        assert!(Regex::parse("(p1 | p2 p3*)+ p1+", resolve).is_ok());
        let chain = "p1".to_string() + &"+".repeat(64);
        assert_eq!(
            Regex::parse(&chain, resolve),
            Err(RegexParseError::Syntax(format!(
                "`+` copies more than {MAX_COPIED} nodes"
            )))
        );
    }
}
