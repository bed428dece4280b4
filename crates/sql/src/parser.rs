//! Recursive-descent parser for the SkyServer SQL dialect.
//!
//! The dialect is the subset of Transact-SQL the paper's queries actually
//! use: multi-statement scripts with `DECLARE`/`SET`, `SELECT ... INTO`
//! temp tables, `TOP n`, explicit and comma joins, table-valued functions in
//! `FROM`, `GROUP BY`/`HAVING`/`ORDER BY`, `CREATE TABLE/INDEX/VIEW`, and
//! the usual DML statements.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token};
use skyserver_storage::{DataType, Value};

/// Parse a SQL script (one or more statements separated by optional
/// semicolons).
pub fn parse_script(sql: &str) -> Result<Vec<Statement>, SqlError> {
    let (tokens, ends) = tokenize(sql).map_err(|e| SqlError::Parse(e.to_string()))?;
    let mut parser = Parser {
        tokens,
        ends,
        sql,
        pos: 0,
    };
    let mut statements = Vec::new();
    loop {
        while parser.eat(&Token::Semicolon) {}
        if parser.peek() == &Token::Eof {
            break;
        }
        statements.push(parser.parse_statement()?);
    }
    if statements.is_empty() {
        return Err(SqlError::Parse("empty SQL script".into()));
    }
    Ok(statements)
}

/// Parse a single statement (errors if more than one is present).
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let mut stmts = parse_script(sql)?;
    if stmts.len() != 1 {
        return Err(SqlError::Parse(format!(
            "expected a single statement, found {}",
            stmts.len()
        )));
    }
    Ok(stmts.remove(0))
}

/// Parse a SELECT statement from text (used for view definitions).
pub fn parse_select(sql: &str) -> Result<SelectStatement, SqlError> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        _ => Err(SqlError::Parse("expected a SELECT statement".into())),
    }
}

struct Parser<'s> {
    tokens: Vec<Token>,
    /// The byte offset in `sql` where each token ends.
    ends: Vec<usize>,
    sql: &'s str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek_at(&self, offset: usize) -> &Token {
        self.tokens.get(self.pos + offset).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t} but found {}",
                self.peek()
            )))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn peek_keyword_at(&self, offset: usize, kw: &str) -> bool {
        matches!(self.peek_at(offset), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw} but found {}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            Token::TempTable(s) => Ok(format!("##{s}")),
            other => Err(SqlError::Parse(format!(
                "expected an identifier but found {other}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, SqlError> {
        if self.peek_keyword("select") {
            Ok(Statement::Select(self.parse_select_statement()?))
        } else if self.peek_keyword("explain") {
            self.advance();
            self.expect_keyword("verify")?;
            Ok(Statement::ExplainVerify(self.parse_select_statement()?))
        } else if self.peek_keyword("insert") {
            self.parse_insert()
        } else if self.peek_keyword("update") {
            self.parse_update()
        } else if self.peek_keyword("delete") {
            self.parse_delete()
        } else if self.peek_keyword("create") {
            self.parse_create()
        } else if self.peek_keyword("drop") {
            self.parse_drop()
        } else if self.peek_keyword("declare") {
            self.parse_declare()
        } else if self.peek_keyword("set") {
            self.parse_set()
        } else if self.peek_keyword("publish") {
            self.advance();
            self.expect_keyword("release")?;
            let id = self.expect_ident()?;
            Ok(Statement::PublishRelease { id })
        } else {
            Err(SqlError::Parse(format!(
                "unexpected start of statement: {}",
                self.peek()
            )))
        }
    }

    fn parse_select_statement(&mut self) -> Result<SelectStatement, SqlError> {
        self.expect_keyword("select")?;
        let mut stmt = SelectStatement::default();
        if self.eat_keyword("distinct") {
            stmt.distinct = true;
        }
        if self.eat_keyword("top") {
            match self.advance() {
                Token::Number(n) => {
                    stmt.top = Some(
                        n.parse::<u64>()
                            .map_err(|_| SqlError::Parse(format!("invalid TOP count {n}")))?,
                    );
                }
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected a number after TOP, found {other}"
                    )))
                }
            }
        }
        stmt.projections = self.parse_select_list()?;
        if self.eat_keyword("into") {
            stmt.into = Some(self.expect_ident()?);
        }
        if self.eat_keyword("from") {
            stmt.from = self.parse_from_list()?;
        }
        if self.eat_keyword("where") {
            stmt.selection = Some(self.parse_expr()?);
        }
        if self.peek_keyword("group") {
            self.advance();
            self.expect_keyword("by")?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("having") {
            stmt.having = Some(self.parse_expr()?);
        }
        if self.peek_keyword("order") {
            self.advance();
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                stmt.order_by.push(OrderByItem { expr, ascending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.peek_keyword("as") && self.peek_keyword_at(1, "of") {
            self.advance();
            self.advance();
            stmt.as_of = Some(self.expect_ident()?);
        }
        Ok(stmt)
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        let mut items = Vec::new();
        loop {
            if self.peek() == &Token::Star {
                self.advance();
                items.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), Token::Ident(_))
                && self.peek_at(1) == &Token::Dot
                && self.peek_at(2) == &Token::Star
            {
                let q = self.expect_ident()?;
                self.advance(); // dot
                self.advance(); // star
                items.push(SelectItem::QualifiedWildcard(q));
            } else {
                let expr = self.parse_expr()?;
                let as_of_follows = self.peek_keyword("as") && self.peek_keyword_at(1, "of");
                let alias = if !as_of_follows
                    && (self.eat_keyword("as") || self.projection_alias_follows())
                {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    /// Heuristic: a bare identifier right after a projection expression is an
    /// implicit alias unless it is a clause keyword.
    fn projection_alias_follows(&self) -> bool {
        match self.peek() {
            Token::Ident(s) => !matches!(
                s.to_ascii_lowercase().as_str(),
                "from"
                    | "into"
                    | "where"
                    | "group"
                    | "having"
                    | "order"
                    | "join"
                    | "on"
                    | "inner"
                    | "left"
                    | "cross"
                    | "union"
                    | "as"
                    | "and"
                    | "or"
                    | "between"
                    | "not"
                    | "in"
                    | "like"
                    | "is"
                    | "asc"
                    | "desc"
            ),
            _ => false,
        }
    }

    fn parse_from_list(&mut self) -> Result<Vec<FromItem>, SqlError> {
        let mut items = vec![self.parse_from_item(None)?];
        loop {
            if self.eat(&Token::Comma) {
                items.push(self.parse_from_item(None)?);
            } else if self.peek_keyword("join") || self.peek_keyword("inner") {
                self.eat_keyword("inner");
                self.expect_keyword("join")?;
                let mut item = self.parse_from_item(Some(JoinKind::Inner))?;
                self.expect_keyword("on")?;
                item.on = Some(self.parse_expr()?);
                items.push(item);
            } else if self.peek_keyword("left") {
                self.advance();
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                let mut item = self.parse_from_item(Some(JoinKind::Left))?;
                self.expect_keyword("on")?;
                item.on = Some(self.parse_expr()?);
                items.push(item);
            } else if self.peek_keyword("cross") {
                self.advance();
                self.expect_keyword("join")?;
                let item = self.parse_from_item(Some(JoinKind::Cross))?;
                items.push(item);
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn parse_from_item(&mut self, join: Option<JoinKind>) -> Result<FromItem, SqlError> {
        let source = if self.eat(&Token::LParen) {
            // Derived table.
            let select = self.parse_select_statement()?;
            self.expect(&Token::RParen)?;
            TableSource::Derived(Box::new(select))
        } else {
            match self.advance() {
                Token::Ident(first) => {
                    // Possibly dotted name and possibly a function call.
                    let mut name = first;
                    while self.peek() == &Token::Dot {
                        self.advance();
                        let part = self.expect_ident()?;
                        name = format!("{name}.{part}");
                    }
                    if self.peek() == &Token::LParen {
                        self.advance();
                        let mut args = Vec::new();
                        if self.peek() != &Token::RParen {
                            loop {
                                args.push(self.parse_expr()?);
                                if !self.eat(&Token::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&Token::RParen)?;
                        TableSource::Function { name, args }
                    } else {
                        TableSource::Named(name)
                    }
                }
                Token::TempTable(name) => TableSource::Named(format!("##{name}")),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected a table reference, found {other}"
                    )))
                }
            }
        };
        // `AS OF <release>` pins the statement to a snapshot; it must not be
        // mistaken for an `AS of` table alias.
        let as_of_follows = self.peek_keyword("as") && self.peek_keyword_at(1, "of");
        let alias = if !as_of_follows && (self.eat_keyword("as") || self.table_alias_follows()) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(FromItem {
            source,
            alias,
            join,
            on: None,
        })
    }

    fn table_alias_follows(&self) -> bool {
        match self.peek() {
            Token::Ident(s) => !matches!(
                s.to_ascii_lowercase().as_str(),
                "where"
                    | "group"
                    | "having"
                    | "order"
                    | "join"
                    | "on"
                    | "inner"
                    | "left"
                    | "cross"
                    | "union"
                    | "as"
                    | "select"
            ),
            _ => false,
        }
    }

    fn parse_insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("insert")?;
        self.eat_keyword("into");
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.peek() == &Token::LParen {
            self.advance();
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        let source = if self.eat_keyword("values") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.peek_keyword("select") {
            InsertSource::Select(Box::new(self.parse_select_statement()?))
        } else {
            return Err(SqlError::Parse(
                "expected VALUES or SELECT in INSERT statement".into(),
            ));
        };
        Ok(Statement::Insert(InsertStatement {
            table,
            columns,
            source,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("update")?;
        let table = self.expect_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.expect_ident()?;
            self.expect(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((column, value));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStatement {
            table,
            assignments,
            selection,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("delete")?;
        self.eat_keyword("from");
        let table = self.expect_ident()?;
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStatement { table, selection }))
    }

    fn parse_create(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("create")?;
        if self.eat_keyword("table") {
            let name = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let mut columns = Vec::new();
            let mut primary_key = Vec::new();
            loop {
                if self.peek_keyword("primary") {
                    self.advance();
                    self.expect_keyword("key")?;
                    self.expect(&Token::LParen)?;
                    loop {
                        primary_key.push(self.expect_ident()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                } else {
                    let col_name = self.expect_ident()?;
                    let ty_name = self.expect_ident()?;
                    // Swallow optional (n) / (n, m) size suffixes.
                    if self.eat(&Token::LParen) {
                        while self.peek() != &Token::RParen && self.peek() != &Token::Eof {
                            self.advance();
                        }
                        self.expect(&Token::RParen)?;
                    }
                    let ty = DataType::parse(&ty_name)
                        .ok_or_else(|| SqlError::Parse(format!("unknown column type {ty_name}")))?;
                    let mut nullable = true;
                    if self.peek_keyword("not") {
                        self.advance();
                        self.expect_keyword("null")?;
                        nullable = false;
                    } else {
                        self.eat_keyword("null");
                    }
                    columns.push(ColumnSpec {
                        name: col_name,
                        ty,
                        nullable,
                    });
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            Ok(Statement::CreateTable(CreateTableStatement {
                name,
                columns,
                primary_key,
            }))
        } else if self.peek_keyword("unique") || self.peek_keyword("index") {
            let unique = self.eat_keyword("unique");
            self.expect_keyword("index")?;
            let name = self.expect_ident()?;
            self.expect_keyword("on")?;
            let table = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            let mut include = Vec::new();
            if self.eat_keyword("include") {
                self.expect(&Token::LParen)?;
                loop {
                    include.push(self.expect_ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            Ok(Statement::CreateIndex(CreateIndexStatement {
                name,
                table,
                columns,
                include,
                unique,
            }))
        } else if self.eat_keyword("view") {
            let name = self.expect_ident()?;
            self.expect_keyword("as")?;
            let start = self.ends.get(self.pos - 1).copied().unwrap_or(0);
            let query = self.parse_select_statement()?;
            let end = self.ends.get(self.pos - 1).copied().unwrap_or(start);
            let source = self
                .sql
                .get(start..end)
                .unwrap_or_default()
                .trim()
                .to_string();
            Ok(Statement::CreateView(CreateViewStatement {
                name,
                query,
                source,
            }))
        } else {
            Err(SqlError::Parse(format!(
                "CREATE must be followed by TABLE, INDEX or VIEW, found {}",
                self.peek()
            )))
        }
    }

    fn parse_drop(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("drop")?;
        self.expect_keyword("table")?;
        let name = self.expect_ident()?;
        Ok(Statement::DropTable { name })
    }

    fn parse_declare(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("declare")?;
        let name = match self.advance() {
            Token::Variable(v) => v,
            other => {
                return Err(SqlError::Parse(format!(
                    "expected @variable after DECLARE, found {other}"
                )))
            }
        };
        let ty_name = self.expect_ident()?;
        if self.eat(&Token::LParen) {
            while self.peek() != &Token::RParen && self.peek() != &Token::Eof {
                self.advance();
            }
            self.expect(&Token::RParen)?;
        }
        let ty = DataType::parse(&ty_name)
            .ok_or_else(|| SqlError::Parse(format!("unknown type {ty_name}")))?;
        Ok(Statement::Declare { name, ty })
    }

    fn parse_set(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("set")?;
        let name = match self.advance() {
            Token::Variable(v) => v,
            other => {
                return Err(SqlError::Parse(format!(
                    "expected @variable after SET, found {other}"
                )))
            }
        };
        self.expect(&Token::Eq)?;
        let expr = self.parse_expr()?;
        Ok(Statement::SetVariable { name, expr })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.eat_keyword("not") {
            let expr = self.parse_not()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.parse_bitor()?;
        // BETWEEN / IN / LIKE / IS NULL, possibly negated.
        let negated = if self.peek_keyword("not")
            && (self.peek_keyword_at(1, "between")
                || self.peek_keyword_at(1, "in")
                || self.peek_keyword_at(1, "like"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_keyword("between") {
            let low = self.parse_bitor()?;
            self.expect_keyword("and")?;
            let high = self.parse_bitor()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("in") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("like") {
            let pattern = self.parse_bitor()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.peek_keyword("is") {
            self.advance();
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_bitor()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_bitor(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_bitand()?;
        while self.peek() == &Token::Pipe {
            self.advance();
            let right = self.parse_bitand()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::BitOr,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_bitand(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_additive()?;
        while self.peek() == &Token::Ampersand {
            self.advance();
            let right = self.parse_additive()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::BitAnd,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if self.peek() == &Token::Minus {
            self.advance();
            let expr = self.parse_unary()?;
            // Fold negative numeric literals for cleaner plans.
            if let Expr::Literal(Value::Int(i)) = expr {
                return Ok(Expr::Literal(Value::Int(-i)));
            }
            if let Expr::Literal(Value::Float(f)) = expr {
                return Ok(Expr::Literal(Value::Float(-f)));
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.peek() == &Token::Plus {
            self.advance();
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.advance() {
            Token::Number(n) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    n.parse::<f64>()
                        .map(|f| Expr::Literal(Value::Float(f)))
                        .map_err(|_| SqlError::Parse(format!("bad numeric literal {n}")))
                } else {
                    n.parse::<i64>()
                        .map(|i| Expr::Literal(Value::Int(i)))
                        .or_else(|_| n.parse::<f64>().map(|f| Expr::Literal(Value::Float(f))))
                        .map_err(|_| SqlError::Parse(format!("bad numeric literal {n}")))
                }
            }
            Token::StringLit(s) => Ok(Expr::Literal(Value::str(s))),
            Token::Variable(v) => Ok(Expr::Variable(v)),
            Token::Star => Ok(Expr::Star),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(first) => self.parse_ident_expr(first),
            other => Err(SqlError::Parse(format!(
                "unexpected token {other} in expression"
            ))),
        }
    }

    fn parse_ident_expr(&mut self, first: String) -> Result<Expr, SqlError> {
        let lower = first.to_ascii_lowercase();
        // NULL literal, CASE, CAST and NOT handled specially.
        if lower == "null" {
            return Ok(Expr::Literal(Value::Null));
        }
        if lower == "case" {
            return self.parse_case();
        }
        if lower == "cast" {
            self.expect(&Token::LParen)?;
            let expr = self.parse_expr()?;
            self.expect_keyword("as")?;
            let ty_name = self.expect_ident()?;
            if self.eat(&Token::LParen) {
                while self.peek() != &Token::RParen && self.peek() != &Token::Eof {
                    self.advance();
                }
                self.expect(&Token::RParen)?;
            }
            self.expect(&Token::RParen)?;
            let ty = DataType::parse(&ty_name)
                .ok_or_else(|| SqlError::Parse(format!("unknown cast type {ty_name}")))?;
            return Ok(Expr::Cast {
                expr: Box::new(expr),
                ty,
            });
        }
        // Dotted name: alias.column, dbo.func(...), alias.column more parts.
        let mut parts = vec![first];
        while self.peek() == &Token::Dot {
            self.advance();
            parts.push(self.expect_ident()?);
        }
        if self.peek() == &Token::LParen {
            // Function call; name keeps its dotted spelling.
            self.advance();
            let mut args = Vec::new();
            if self.peek() != &Token::RParen {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name: parts.join("."),
                args,
            });
        }
        match parts.len() {
            1 => Ok(Expr::Column {
                qualifier: None,
                name: parts.pop().expect("one part"),
            }),
            2 => {
                let name = parts.pop().expect("two parts");
                let qualifier = parts.pop().expect("two parts");
                Ok(Expr::Column {
                    qualifier: Some(qualifier),
                    name,
                })
            }
            _ => {
                // dbo.table.column style: keep the last two parts.
                let name = parts.pop().expect(">2 parts");
                let qualifier = parts.pop().expect(">2 parts");
                Ok(Expr::Column {
                    qualifier: Some(qualifier),
                    name,
                })
            }
        }
    }

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        let mut branches = Vec::new();
        let mut else_value = None;
        loop {
            if self.eat_keyword("when") {
                let cond = self.parse_expr()?;
                self.expect_keyword("then")?;
                let value = self.parse_expr()?;
                branches.push((cond, value));
            } else if self.eat_keyword("else") {
                else_value = Some(Box::new(self.parse_expr()?));
            } else if self.eat_keyword("end") {
                break;
            } else {
                return Err(SqlError::Parse(format!(
                    "unexpected token {} in CASE expression",
                    self.peek()
                )));
            }
        }
        Ok(Expr::Case {
            branches,
            else_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_select() {
        let s =
            parse_select("select objID, ra, dec from photoObj where ra > 180 and dec < 0").unwrap();
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.from.len(), 1);
        assert!(s.selection.is_some());
        assert!(matches!(
            s.from[0].source,
            TableSource::Named(ref n) if n == "photoObj"
        ));
    }

    #[test]
    fn parses_top_distinct_order() {
        let s =
            parse_select("select distinct top 10 type from PhotoObj order by type desc").unwrap();
        assert_eq!(s.top, Some(10));
        assert!(s.distinct);
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].ascending);
    }

    #[test]
    fn parses_aliases_with_and_without_as() {
        let s = parse_select(
            "select p.objID as id, sqrt(rowv*rowv+colv*colv) velocity from PhotoObj p",
        )
        .unwrap();
        match &s.projections[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("id")),
            _ => panic!("expected expr"),
        }
        match &s.projections[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("velocity")),
            _ => panic!("expected expr"),
        }
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));
    }

    #[test]
    fn parses_select_into_temp_table() {
        let s = parse_select("select objID into ##results from PhotoObj").unwrap();
        assert_eq!(s.into.as_deref(), Some("##results"));
    }

    #[test]
    fn parses_explicit_join_with_tvf() {
        let s = parse_select(
            "select G.objID, GN.distance from Galaxy as G \
             join fGetNearbyObjEq(185,-0.5, 1) as GN on G.objID = GN.objID",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[1].join, Some(JoinKind::Inner));
        assert!(s.from[1].on.is_some());
        match &s.from[1].source {
            TableSource::Function { name, args } => {
                assert_eq!(name, "fGetNearbyObjEq");
                assert_eq!(args.len(), 3);
                assert_eq!(args[1], Expr::Literal(Value::Float(-0.5)));
            }
            other => panic!("expected TVF, got {other:?}"),
        }
    }

    #[test]
    fn parses_comma_join_self_join() {
        let s =
            parse_select("select r.objID, g.objID from PhotoObj r, PhotoObj g where r.run = g.run")
                .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias.as_deref(), Some("r"));
        assert_eq!(s.from[1].alias.as_deref(), Some("g"));
        assert!(s.from[1].join.is_none());
    }

    #[test]
    fn parses_group_by_having() {
        let s = parse_select(
            "select type, count(*) as n, avg(modelMag_r) from PhotoObj \
             group by type having count(*) > 10 order by n",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_between_in_like_isnull() {
        let s = parse_select(
            "select * from PhotoObj where fiberMag_r between 6 and 22 \
             and type in (3, 6) and name like 'NGC%' and parentID is not null \
             and flags is null and ra not between 10 and 20",
        )
        .unwrap();
        let conjuncts = s.selection.unwrap().conjuncts().len();
        assert_eq!(conjuncts, 6);
    }

    #[test]
    fn parses_bitwise_flag_test() {
        let s = parse_select("select * from PhotoObj where (flags & @saturated) = 0").unwrap();
        let sel = s.selection.unwrap();
        match sel {
            Expr::Binary { left, op, .. } => {
                assert_eq!(op, BinaryOp::Eq);
                assert!(matches!(
                    *left,
                    Expr::Binary {
                        op: BinaryOp::BitAnd,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_multi_statement_script() {
        let script = parse_script(
            "declare @saturated bigint; \
             set @saturated = dbo.fPhotoFlags('saturated'); \
             select objID from PhotoObj where (flags & @saturated) = 0",
        )
        .unwrap();
        assert_eq!(script.len(), 3);
        assert!(matches!(script[0], Statement::Declare { .. }));
        assert!(matches!(script[1], Statement::SetVariable { .. }));
        assert!(matches!(script[2], Statement::Select(_)));
    }

    #[test]
    fn parses_create_table_index_view() {
        let ct = parse_statement(
            "create table t (id bigint not null, mag float, name varchar(64), primary key (id))",
        )
        .unwrap();
        match ct {
            Statement::CreateTable(c) => {
                assert_eq!(c.columns.len(), 3);
                assert!(!c.columns[0].nullable);
                assert!(c.columns[1].nullable);
                assert_eq!(c.primary_key, vec!["id"]);
            }
            other => panic!("{other:?}"),
        }
        let ci = parse_statement("create unique index ix_t on t (mag, id) include (name)").unwrap();
        match ci {
            Statement::CreateIndex(c) => {
                assert!(c.unique);
                assert_eq!(c.columns, vec!["mag", "id"]);
                assert_eq!(c.include, vec!["name"]);
            }
            other => panic!("{other:?}"),
        }
        let cv =
            parse_statement("create view Star as select * from PhotoObj where type = 6").unwrap();
        assert!(matches!(cv, Statement::CreateView(_)));
    }

    #[test]
    fn parses_insert_update_delete() {
        let i = parse_statement("insert into t (id, mag) values (1, 2.5), (2, 3.5)").unwrap();
        match i {
            Statement::Insert(ins) => match ins.source {
                InsertSource::Values(rows) => assert_eq!(rows.len(), 2),
                _ => panic!("expected VALUES"),
            },
            other => panic!("{other:?}"),
        }
        let i2 = parse_statement("insert into t select id, mag from s where mag > 1").unwrap();
        assert!(matches!(
            i2,
            Statement::Insert(InsertStatement {
                source: InsertSource::Select(_),
                ..
            })
        ));
        let u = parse_statement("update t set mag = mag + 1 where id = 3").unwrap();
        assert!(matches!(u, Statement::Update(_)));
        let d = parse_statement("delete from t where id = 3").unwrap();
        assert!(matches!(d, Statement::Delete(_)));
    }

    #[test]
    fn parses_case_and_cast() {
        let s = parse_select(
            "select case when type = 3 then 'galaxy' when type = 6 then 'star' else 'other' end, \
             cast(ra as bigint) from PhotoObj",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 2);
    }

    #[test]
    fn parses_query15_from_the_paper() {
        let s = parse_select(
            "select objID, sqrt(rowv*rowv+colv*colv) as velocity, dbo.fGetUrlExpId(objID) as Url \
             into ##results from PhotoObj \
             where (rowv*rowv+colv*colv) between 50 and 1000 and rowv >= 0 and colv >= 0",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.into.as_deref(), Some("##results"));
        assert_eq!(s.selection.unwrap().conjuncts().len(), 3);
    }

    #[test]
    fn parses_fast_mover_query_fragment() {
        // A representative chunk of the paper's NEO pair query.
        let s = parse_select(
            "select r.objID as rId, g.objId as gId from PhotoObj r, PhotoObj g \
             where r.run = g.run and r.camcol = g.camcol \
             and abs(g.field - r.field) <= 1 \
             and ((power(r.q_r,2) + power(r.u_r,2)) > 0.111111) \
             and r.fiberMag_r between 6 and 22 \
             and sqrt(power(r.cx - g.cx, 2) + power(r.cy - g.cy, 2) + power(r.cz - g.cz, 2)) * (180*60/pi()) < 4.0",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert!(s.selection.unwrap().conjuncts().len() >= 5);
    }

    #[test]
    fn reports_errors_for_malformed_sql() {
        assert!(parse_script("").is_err());
        assert!(parse_script("selec * from t").is_err());
        assert!(parse_script("select from where").is_err());
        assert!(parse_script("select * from t where (a = 1").is_err());
        assert!(parse_statement("select 1; select 2").is_err());
        assert!(parse_statement("create table t (id badtype)").is_err());
    }

    #[test]
    fn parses_as_of_release_pin() {
        let s = parse_select("select objID from PhotoObj where ra > 180 as of dr2").unwrap();
        assert_eq!(s.as_of.as_deref(), Some("dr2"));
        // AS OF must not be mistaken for a table alias named `of`.
        assert_eq!(s.from[0].alias, None);

        let s = parse_select("select objID from PhotoObj p order by objID as of dr1").unwrap();
        assert_eq!(s.as_of.as_deref(), Some("dr1"));
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));

        // AS OF directly after the FROM item (no WHERE clause).
        let s = parse_select("select objID from PhotoObj as of dr3").unwrap();
        assert_eq!(s.as_of.as_deref(), Some("dr3"));
        assert_eq!(s.from[0].alias, None);

        // Explicit aliases still work.
        let s = parse_select("select objID from PhotoObj as p as of dr1").unwrap();
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));
        assert_eq!(s.as_of.as_deref(), Some("dr1"));
    }

    #[test]
    fn parses_publish_release() {
        let st = parse_statement("publish release dr2").unwrap();
        assert!(matches!(st, Statement::PublishRelease { ref id } if id == "dr2"));
        assert!(parse_statement("publish dr2").is_err());
    }

    #[test]
    fn qualified_wildcard() {
        let s = parse_select("select g.*, s.z from Galaxy g join SpecObj s on g.objID = s.objID")
            .unwrap();
        assert!(matches!(
            s.projections[0],
            SelectItem::QualifiedWildcard(ref q) if q == "g"
        ));
    }
}
