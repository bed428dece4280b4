//! SQL lexer.
//!
//! Tokenises the SkyServer SQL dialect: identifiers (including the
//! `dbo.fPhotoFlags` two-part function names, `##results` temp tables and
//! `@saturated` variables), string and numeric literals, operators
//! (including the bitwise `&` and `|` that flag tests rely on), and both
//! `--` line comments and `/* ... */` block comments.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (kept verbatim; keyword matching is
    /// case-insensitive in the parser).
    Ident(String),
    /// `@name` variable reference.
    Variable(String),
    /// `##name` temporary table reference.
    TempTable(String),
    /// Numeric literal (integer or float).
    Number(String),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `&` (bitwise AND, the flag-test operator)
    Ampersand,
    /// `|` (bitwise OR)
    Pipe,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Variable(s) => write!(f, "@{s}"),
            Token::TempTable(s) => write!(f, "##{s}"),
            Token::Number(s) => write!(f, "{s}"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Semicolon => write!(f, ";"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Ampersand => write!(f, "&"),
            Token::Pipe => write!(f, "|"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexing error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where lexing failed.
    pub position: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenise a SQL script, with the byte offset where each token ends.  The
/// returned tokens always end with [`Token::Eof`].
pub fn tokenize(input: &str) -> Result<(Vec<Token>, Vec<usize>), LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut ends = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Each step lexes at most one token and leaves `i` at its end.
        if ends.len() < tokens.len() {
            ends.push(i);
        }
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            position: start,
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            position: start,
                        });
                    }
                    if bytes[i] == b'\'' {
                        if bytes.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                }
                tokens.push(Token::StringLit(s));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                tokens.push(Token::Number(input[start..i].to_string()));
            }
            '@' => {
                i += 1;
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                if start == i {
                    return Err(LexError {
                        message: "expected variable name after '@'".into(),
                        position: start,
                    });
                }
                tokens.push(Token::Variable(input[start..i].to_string()));
            }
            '#' => {
                // ## temp table or # local temp table -- both treated alike.
                let mut j = i;
                while j < bytes.len() && bytes[j] == b'#' {
                    j += 1;
                }
                let start = j;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                if start == j {
                    return Err(LexError {
                        message: "expected temp table name after '#'".into(),
                        position: i,
                    });
                }
                tokens.push(Token::TempTable(input[start..j].to_string()));
                i = j;
            }
            '[' => {
                // Bracket-quoted identifier.
                let start = i;
                i += 1;
                let name_start = i;
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated [identifier]".into(),
                        position: start,
                    });
                }
                tokens.push(Token::Ident(input[name_start..i].to_string()));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '&' => {
                tokens.push(Token::Ampersand);
                i += 1;
            }
            '|' => {
                tokens.push(Token::Pipe);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        }
    }
    if ends.len() < tokens.len() {
        ends.push(i);
    }
    tokens.push(Token::Eof);
    ends.push(input.len());
    Ok((tokens, ends))
}

fn is_ident_char(b: u8) -> bool {
    (b as char).is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_select() {
        let toks = tokenize("select objID, ra from photoObj where ra > 180.5")
            .unwrap()
            .0;
        assert_eq!(toks[0], Token::Ident("select".into()));
        assert_eq!(toks[1], Token::Ident("objID".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::Number("180.5".into())));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn tokenizes_variables_and_temp_tables() {
        let toks = tokenize("set @saturated = 1 select * into ##results from x")
            .unwrap()
            .0;
        assert!(toks.contains(&Token::Variable("saturated".into())));
        assert!(toks.contains(&Token::TempTable("results".into())));
    }

    #[test]
    fn tokenizes_strings_with_escapes() {
        let toks = tokenize("select 'it''s', 'plain'").unwrap().0;
        assert_eq!(toks[1], Token::StringLit("it's".into()));
        assert_eq!(toks[3], Token::StringLit("plain".into()));
        assert!(tokenize("select 'unterminated").is_err());
    }

    #[test]
    fn strips_comments() {
        let sql = "select 1 -- trailing comment\n , 2 /* block\ncomment */ , 3";
        let toks = tokenize(sql).unwrap().0;
        let numbers: Vec<&Token> = toks
            .iter()
            .filter(|t| matches!(t, Token::Number(_)))
            .collect();
        assert_eq!(numbers.len(), 3);
        assert!(tokenize("/* unterminated").is_err());
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a <= b >= c <> d != e < f > g = h").unwrap().0;
        assert!(toks.contains(&Token::LtEq));
        assert!(toks.contains(&Token::GtEq));
        assert_eq!(toks.iter().filter(|t| **t == Token::NotEq).count(), 2);
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Gt));
        assert!(toks.contains(&Token::Eq));
    }

    #[test]
    fn bitwise_and_arithmetic() {
        let toks = tokenize("(flags & 64) | 2 + 3*4/5 % 6 - 7").unwrap().0;
        assert!(toks.contains(&Token::Ampersand));
        assert!(toks.contains(&Token::Pipe));
        assert!(toks.contains(&Token::Percent));
    }

    #[test]
    fn scientific_notation_numbers() {
        let toks = tokenize("select 1e6, 2.5E-3, 42").unwrap().0;
        assert_eq!(toks[1], Token::Number("1e6".into()));
        assert_eq!(toks[3], Token::Number("2.5E-3".into()));
    }

    #[test]
    fn dotted_names() {
        let toks = tokenize("dbo.fPhotoFlags('saturated')").unwrap().0;
        assert_eq!(toks[0], Token::Ident("dbo".into()));
        assert_eq!(toks[1], Token::Dot);
        assert_eq!(toks[2], Token::Ident("fPhotoFlags".into()));
    }

    #[test]
    fn bracket_quoted_identifiers() {
        let toks = tokenize("select [order] from [my table]").unwrap().0;
        assert_eq!(toks[1], Token::Ident("order".into()));
        assert_eq!(toks[3], Token::Ident("my table".into()));
        assert!(tokenize("[unclosed").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("select ?").is_err());
        assert!(tokenize("@").is_err());
        assert!(tokenize("#").is_err());
    }

    #[test]
    fn query1_from_the_paper_lexes() {
        let sql = r#"
            declare @saturated bigint;
            set @saturated = dbo.fPhotoFlags('saturated');
            select G.objID, GN.distance
            into ##results
            from Galaxy as G
            join fGetNearbyObjEq(185,-0.5, 1) as GN on G.objID = GN.objID
            where (G.flags & @saturated) = 0
            order by distance
        "#;
        let toks = tokenize(sql).unwrap().0;
        assert!(toks.len() > 40);
        assert!(toks.contains(&Token::Variable("saturated".into())));
        assert!(toks.contains(&Token::TempTable("results".into())));
    }
}
