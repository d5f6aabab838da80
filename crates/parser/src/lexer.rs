//! Hand-written SQL lexer.

use crate::token::{Keyword, Spanned, Token};

/// Lexical error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset where the error occurred.
    pub offset: usize,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Streaming lexer over a SQL string.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenize the whole input, appending a final [`Token::Eof`].
    pub fn tokenize(src: &str) -> Result<Vec<Spanned>, LexError> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let sp = lx.next_token()?;
            let is_eof = sp.tok == Token::Eof;
            out.push(sp);
            if is_eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                // `-- line comment`
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                // `/* block comment */`
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    offset: start,
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce the next token.
    fn next_token(&mut self) -> Result<Spanned, LexError> {
        self.skip_trivia()?;
        let offset = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Spanned {
                tok: Token::Eof,
                offset,
            });
        };
        let tok = match b {
            b'(' => {
                self.pos += 1;
                Token::LParen
            }
            b')' => {
                self.pos += 1;
                Token::RParen
            }
            b',' => {
                self.pos += 1;
                Token::Comma
            }
            b'.' => {
                self.pos += 1;
                Token::Dot
            }
            b'+' => {
                self.pos += 1;
                Token::Plus
            }
            b'-' => {
                self.pos += 1;
                Token::Minus
            }
            b'*' => {
                self.pos += 1;
                Token::Star
            }
            b'/' => {
                self.pos += 1;
                Token::Slash
            }
            b'%' => {
                self.pos += 1;
                Token::Percent
            }
            b';' => {
                self.pos += 1;
                Token::Semicolon
            }
            b'=' => {
                self.pos += 1;
                Token::Eq
            }
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Token::NotEq
                } else {
                    return Err(LexError {
                        message: "expected `=` after `!`".into(),
                        offset,
                    });
                }
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        Token::LtEq
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        Token::NotEq
                    }
                    _ => Token::Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Token::GtEq
                } else {
                    Token::Gt
                }
            }
            b'\'' => self.lex_string(offset)?,
            b'0'..=b'9' => self.lex_number(offset)?,
            b if b.is_ascii_alphabetic() || b == b'_' => self.lex_word(),
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{}`", other as char),
                    offset,
                })
            }
        };
        Ok(Spanned { tok, offset })
    }

    fn lex_string(&mut self, offset: usize) -> Result<Token, LexError> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => {
                    // `''` is an escaped quote.
                    if self.peek() == Some(b'\'') {
                        self.pos += 1;
                        out.push('\'');
                    } else {
                        return Ok(Token::Str(out));
                    }
                }
                Some(b) => out.push(b as char),
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        offset,
                    })
                }
            }
        }
    }

    fn lex_number(&mut self, offset: usize) -> Result<Token, LexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        // Fractional part: only when followed by a digit, so `1.x` lexes as
        // `1` `.` `x` (qualified-name syntax never follows a number, but we
        // stay conservative).
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.src.get(ahead), Some(b'+') | Some(b'-')) {
                ahead += 1;
            }
            if matches!(self.src.get(ahead), Some(b'0'..=b'9')) {
                is_float = true;
                self.pos = ahead + 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
        }
        // The scanned range contains only ASCII digits and '.', so it is
        // valid UTF-8 by construction.
        #[allow(clippy::unwrap_used)]
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>().map(Token::Float).map_err(|e| LexError {
                message: format!("bad float literal: {e}"),
                offset,
            })
        } else {
            text.parse::<i64>().map(Token::Int).map_err(|e| LexError {
                message: format!("bad integer literal: {e}"),
                offset,
            })
        }
    }

    fn lex_word(&mut self) -> Token {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
        // ASCII alphanumerics and '_' only — valid UTF-8 by construction.
        #[allow(clippy::unwrap_used)]
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        match Keyword::from_str(text) {
            Some(k) => Token::Keyword(k),
            None => Token::Ident(text.to_ascii_lowercase()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.tok)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("select a, 1.5 from t where x >= 10"),
            vec![
                Token::Keyword(Keyword::SELECT),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Float(1.5),
                Token::Keyword(Keyword::FROM),
                Token::Ident("t".into()),
                Token::Keyword(Keyword::WHERE),
                Token::Ident("x".into()),
                Token::GtEq,
                Token::Int(10),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks("'USA' 'it''s'"),
            vec![
                Token::Str("USA".into()),
                Token::Str("it's".into()),
                Token::Eof
            ]
        );
        assert!(Lexer::tokenize("'oops").is_err());
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            toks("select -- comment\n 1 /* block\n comment */ + 2"),
            vec![
                Token::Keyword(Keyword::SELECT),
                Token::Int(1),
                Token::Plus,
                Token::Int(2),
                Token::Eof
            ]
        );
        assert!(Lexer::tokenize("/* unterminated").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= <> != = > >="),
            vec![
                Token::Lt,
                Token::LtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Eq,
                Token::Gt,
                Token::GtEq,
                Token::Eof
            ]
        );
        assert!(Lexer::tokenize("!x").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.25 1e3 2.5e-2"),
            vec![
                Token::Int(42),
                Token::Float(3.25),
                Token::Float(1000.0),
                Token::Float(0.025),
                Token::Eof
            ]
        );
        // Integer followed by dot-identifier stays separate.
        assert_eq!(
            toks("1.e"),
            vec![
                Token::Int(1),
                Token::Dot,
                Token::Ident("e".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn identifiers_lowercased_keywords_recognized() {
        assert_eq!(
            toks("Trans GROUP grouping_sets"),
            vec![
                Token::Ident("trans".into()),
                Token::Keyword(Keyword::GROUP),
                Token::Ident("grouping_sets".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn offsets_reported() {
        let spanned = Lexer::tokenize("ab  cd").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 4);
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = Lexer::tokenize("select #").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.offset, 7);
    }
}
