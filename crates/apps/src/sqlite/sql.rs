//! SQL lexer, AST, and recursive-descent parser for the SQLite port.
//!
//! Covers the surface the paper's benchmark needs (plus a little more for
//! the examples): `CREATE TABLE`, `INSERT INTO ... VALUES`, `SELECT`
//! with optional `WHERE rowid = n` / `COUNT(*)`, `BEGIN`, `COMMIT`,
//! `DELETE FROM ... WHERE rowid = n`.

use flexos_machine::fault::Fault;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Keyword or identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// 'single quoted' string literal.
    Str(String),
    /// Single-character punctuation.
    Punct(char),
    /// `*`.
    Star,
}

/// Lexes `sql` into tokens.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] on unterminated strings or stray bytes.
pub(crate) fn lex(sql: &str) -> Result<Vec<Token>, Fault> {
    let bad = |what: String| Fault::InvalidConfig {
        reason: format!("sql lexer: {what}"),
    };
    let mut out = Vec::new();
    let bytes = sql.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' | ')' | ',' | ';' | '=' => {
                out.push(Token::Punct(c));
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(bad("unterminated string".to_string()));
                }
                out.push(Token::Str(sql[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' | '-' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &sql[start..i];
                out.push(Token::Int(
                    text.parse()
                        .map_err(|_| bad(format!("bad integer `{text}`")))?,
                ));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(sql[start..i].to_uppercase()));
            }
            other => return Err(bad(format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Text.
    Text(String),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE name (col, col, ...)` (types ignored, SQLite-style).
    CreateTable {
        /// Table name.
        name: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// `INSERT INTO name VALUES (v, v, ...)`.
    Insert {
        /// Table name.
        table: String,
        /// Row values.
        values: Vec<Value>,
    },
    /// `SELECT * FROM name [WHERE ROWID = n]` or `SELECT COUNT(*) FROM`.
    Select {
        /// Table name.
        table: String,
        /// `true` for `COUNT(*)`.
        count: bool,
        /// Optional rowid filter.
        rowid: Option<i64>,
    },
    /// `DELETE FROM name WHERE ROWID = n`.
    Delete {
        /// Table name.
        table: String,
        /// Rowid to delete.
        rowid: i64,
    },
    /// `BEGIN`.
    Begin,
    /// `COMMIT`.
    Commit,
}

/// Parses one statement.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] with a description of the syntax error.
pub fn parse(sql: &str) -> Result<Stmt, Fault> {
    Parser {
        tokens: lex(sql)?,
        pos: 0,
    }
    .statement()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, what: &str) -> Fault {
        Fault::InvalidConfig {
            reason: format!("sql parser: {what} at token {}", self.pos),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), Fault> {
        match self.next() {
            Some(Token::Ident(w)) if w == kw => Ok(()),
            _ => Err(self.err(&format!("expected `{kw}`"))),
        }
    }

    fn ident(&mut self) -> Result<String, Fault> {
        match self.next() {
            Some(Token::Ident(w)) => Ok(w),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn punct(&mut self, c: char) -> Result<(), Fault> {
        match self.next() {
            Some(Token::Punct(p)) if p == c => Ok(()),
            _ => Err(self.err(&format!("expected `{c}`"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, Fault> {
        let head = self.ident()?;
        let stmt = match head.as_str() {
            "CREATE" => {
                self.expect_ident("TABLE")?;
                let name = self.ident()?;
                self.punct('(')?;
                let mut columns = vec![self.ident()?];
                self.skip_type_words();
                while matches!(self.peek(), Some(Token::Punct(','))) {
                    self.next();
                    columns.push(self.ident()?);
                    self.skip_type_words();
                }
                self.punct(')')?;
                Stmt::CreateTable { name, columns }
            }
            "INSERT" => {
                self.expect_ident("INTO")?;
                let table = self.ident()?;
                self.expect_ident("VALUES")?;
                self.punct('(')?;
                let mut values = vec![self.value()?];
                while matches!(self.peek(), Some(Token::Punct(','))) {
                    self.next();
                    values.push(self.value()?);
                }
                self.punct(')')?;
                Stmt::Insert { table, values }
            }
            "SELECT" => {
                let count = match self.peek() {
                    Some(Token::Star) => {
                        self.next();
                        false
                    }
                    Some(Token::Ident(w)) if w == "COUNT" => {
                        self.next();
                        self.punct('(')?;
                        match self.next() {
                            Some(Token::Star) => {}
                            _ => return Err(self.err("expected `*` in COUNT(*)")),
                        }
                        self.punct(')')?;
                        true
                    }
                    _ => return Err(self.err("expected `*` or COUNT(*)")),
                };
                self.expect_ident("FROM")?;
                let table = self.ident()?;
                let rowid = if matches!(self.peek(), Some(Token::Ident(w)) if w == "WHERE") {
                    self.next();
                    self.expect_ident("ROWID")?;
                    self.punct('=')?;
                    match self.next() {
                        Some(Token::Int(n)) => Some(n),
                        _ => return Err(self.err("expected rowid integer")),
                    }
                } else {
                    None
                };
                Stmt::Select {
                    table,
                    count,
                    rowid,
                }
            }
            "DELETE" => {
                self.expect_ident("FROM")?;
                let table = self.ident()?;
                self.expect_ident("WHERE")?;
                self.expect_ident("ROWID")?;
                self.punct('=')?;
                let rowid = match self.next() {
                    Some(Token::Int(n)) => n,
                    _ => return Err(self.err("expected rowid integer")),
                };
                Stmt::Delete { table, rowid }
            }
            "BEGIN" => Stmt::Begin,
            "COMMIT" => Stmt::Commit,
            other => return Err(self.err(&format!("unknown statement `{other}`"))),
        };
        // Optional trailing semicolon.
        if matches!(self.peek(), Some(Token::Punct(';'))) {
            self.next();
        }
        if self.pos != self.tokens.len() {
            return Err(self.err("trailing tokens"));
        }
        Ok(stmt)
    }

    /// Skips column type words (`INTEGER`, `TEXT`, `PRIMARY KEY`, ...) —
    /// SQLite ignores most of them anyway.
    fn skip_type_words(&mut self) {
        while matches!(self.peek(), Some(Token::Ident(_))) {
            self.next();
        }
    }

    fn value(&mut self) -> Result<Value, Fault> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Value::Int(n)),
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            _ => Err(self.err("expected literal value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table_with_types() {
        let stmt = parse("CREATE TABLE kv (id INTEGER PRIMARY KEY, body TEXT)").unwrap();
        assert_eq!(
            stmt,
            Stmt::CreateTable {
                name: "KV".into(),
                columns: vec!["ID".into(), "BODY".into()],
            }
        );
    }

    #[test]
    fn parses_insert() {
        let stmt = parse("INSERT INTO kv VALUES (42, 'hello world');").unwrap();
        assert_eq!(
            stmt,
            Stmt::Insert {
                table: "KV".into(),
                values: vec![Value::Int(42), Value::Text("hello world".into())],
            }
        );
    }

    #[test]
    fn parses_selects() {
        assert_eq!(
            parse("SELECT * FROM kv WHERE rowid = 7").unwrap(),
            Stmt::Select {
                table: "KV".into(),
                count: false,
                rowid: Some(7)
            }
        );
        assert_eq!(
            parse("SELECT COUNT(*) FROM kv").unwrap(),
            Stmt::Select {
                table: "KV".into(),
                count: true,
                rowid: None
            }
        );
    }

    #[test]
    fn parses_transactions_and_delete() {
        assert_eq!(parse("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Stmt::Commit);
        assert_eq!(
            parse("DELETE FROM kv WHERE rowid = 3").unwrap(),
            Stmt::Delete {
                table: "KV".into(),
                rowid: 3
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("DROP TABLE kv").is_err());
        assert!(parse("INSERT INTO kv VALUES (").is_err());
        assert!(parse("SELECT * FROM kv extra junk tokens (").is_err());
        assert!(parse("INSERT INTO kv VALUES ('unterminated)").is_err());
    }

    #[test]
    fn negative_integers() {
        let stmt = parse("INSERT INTO t VALUES (-5)").unwrap();
        assert_eq!(
            stmt,
            Stmt::Insert {
                table: "T".into(),
                values: vec![Value::Int(-5)],
            }
        );
    }
}
