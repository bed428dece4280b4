//! A minimal token-level Rust lexer for skylint.
//!
//! The linter does not need a real parse tree — every rule is a query over
//! the token stream ("`.unwrap` followed by `(`", "`[` preceded by an
//! identifier").  What it *does* need is to never be fooled by comments,
//! string/char literals or lifetimes, which is exactly what this hand-rolled
//! lexer handles (there is no crates.io access, so no syn/proc-macro2).

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// Token text: an identifier, a number, or a single punctuation char.
    /// String literals are collapsed to `"…"` so rules can never match
    /// inside them.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// A `// skylint: allow(<lint>) <reason>` escape found in a comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// The justification after the closing parenthesis (may be empty —
    /// the driver rejects empty reasons).
    pub reason: String,
    /// 1-based line of the comment.
    pub line: usize,
}

/// The lexer output: code tokens plus the allow-escapes seen in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens (comments, literals-content and lifetimes stripped).
    pub tokens: Vec<Tok>,
    /// skylint allow directives harvested from `//` comments.
    pub allows: Vec<AllowDirective>,
}

/// Lex a Rust source file.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                if let Some(d) = parse_allow(&comment, line) {
                    out.allows.push(d);
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                i = skip_string(&chars, i, &mut line);
                out.tokens.push(Tok {
                    text: "\"…\"".into(),
                    line: tok_line,
                });
            }
            'r' | 'b' if raw_string_start(&chars, i).is_some() => {
                let tok_line = line;
                i = skip_raw_string(&chars, i, &mut line);
                out.tokens.push(Tok {
                    text: "\"…\"".into(),
                    line: tok_line,
                });
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = chars.get(i + 1);
                let is_lifetime = matches!(next, Some(ch) if (ch.is_alphabetic() || *ch == '_'))
                    && chars.get(i + 2) != Some(&'\'');
                if is_lifetime {
                    // Emit `'name` as one token: keeping the quote stops the
                    // slice-index rule from mistaking `&'a [T]` for indexing.
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        text: chars[start..i].iter().collect(),
                        line,
                    });
                } else {
                    i = skip_char_literal(&chars, i);
                }
            }
            c if c.is_alphabetic() || c == '_' || c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // A number's fractional part: `.` followed by a digit
                // (leaves `..` ranges and `.method()` calls alone).
                if c.is_ascii_digit()
                    && chars.get(i) == Some(&'.')
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.tokens.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c => {
                out.tokens.push(Tok {
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// `r"…"` / `r#"…"#` / `br#"…"#` start detection: returns the index of the
/// opening quote.
fn raw_string_start(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(j)
}

fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            // A backslash-newline continuation still ends a line.
            '\\' => {
                *line += usize::from(chars.get(i + 1) == Some(&'\n'));
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let Some(quote) = raw_string_start(chars, start) else {
        return start + 1;
    };
    // As many `#`s close the string as stand between `r` and the quote.
    let hashes = chars[..quote]
        .iter()
        .rev()
        .take_while(|&&c| c == '#')
        .count();
    let mut i = quote + 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn skip_char_literal(chars: &[char], mut i: usize) -> usize {
    i += 1; // opening quote
    if chars.get(i) == Some(&'\\') {
        i += 2;
        // `\u{…}` escapes
        if chars.get(i - 1) == Some(&'{') || chars.get(i) == Some(&'{') {
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            return i + 1;
        }
    } else {
        i += 1;
    }
    if chars.get(i) == Some(&'\'') {
        i += 1;
    }
    i
}

/// Parse `skylint: allow(<lint>) <reason>` out of a `//` comment.
fn parse_allow(comment: &str, line: usize) -> Option<AllowDirective> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("skylint:")?.trim();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    Some(AllowDirective {
        lint: rest[..close].trim().to_string(),
        reason: rest[close + 1..].trim().to_string(),
        line,
    })
}

/// Remove every token region belonging to a `#[cfg(test)]` item (the module
/// holding unit tests).  Findings inside tests are noise — `unwrap` in a
/// test is idiomatic.
pub fn strip_cfg_test(tokens: Vec<Tok>) -> Vec<Tok> {
    let ranges = cfg_test_ranges(&tokens);
    let mut ranges = ranges.iter().peekable();
    let mut out = Vec::with_capacity(tokens.len());
    for (i, tok) in tokens.into_iter().enumerate() {
        while ranges.next_if(|r| r.end <= i).is_some() {}
        if !ranges.peek().is_some_and(|r| r.contains(&i)) {
            out.push(tok);
        }
    }
    out
}

/// The token index ranges of every `#[cfg(test)]` item, attribute included,
/// in order.
pub fn cfg_test_ranges(tokens: &[Tok]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is_cfg_test_attr(tokens, i) {
            i += 1;
            continue;
        }
        let start = i;
        // Skip the attribute itself: `#` `[` … matching `]`.
        let mut depth = 0;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Skip the annotated item: up to a top-level `;` or the matching
        // `}` of its first brace block.  `nest` tracks all bracket kinds so
        // a `;` inside `[u8; 4]` or `(…)` does not end the item early.
        let (mut braces, mut nest) = (0i32, 0i32);
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "{" => {
                    braces += 1;
                    nest += 1;
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "}" => {
                    braces -= 1;
                    nest -= 1;
                    if braces == 0 {
                        i += 1;
                        break;
                    }
                }
                ";" if nest == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        ranges.push(start..i);
    }
    ranges
}

/// Does `#` at `i` start a `#[cfg(test)]`-style attribute (any cfg whose
/// argument list mentions `test`)?
fn is_cfg_test_attr(tokens: &[Tok], i: usize) -> bool {
    let t = |k: usize| tokens.get(i + k).map(|t| t.text.as_str());
    if t(0) != Some("#") || t(1) != Some("[") || t(2) != Some("cfg") || t(3) != Some("(") {
        return false;
    }
    let mut depth = 0;
    for tok in &tokens[i + 3..] {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "test" => return true,
            _ => {}
        }
    }
    false
}
