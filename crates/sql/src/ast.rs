//! Abstract syntax tree for the SkyServer SQL dialect.

use skyserver_storage::{DataType, Value};
use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query (possibly with `INTO`).
    Select(SelectStatement),
    /// An `INSERT` statement.
    Insert(InsertStatement),
    /// An `UPDATE` statement.
    Update(UpdateStatement),
    /// A `DELETE` statement.
    Delete(DeleteStatement),
    /// A `CREATE TABLE` statement.
    CreateTable(CreateTableStatement),
    /// A `CREATE [UNIQUE] INDEX` statement.
    CreateIndex(CreateIndexStatement),
    /// A `CREATE VIEW` statement.
    CreateView(CreateViewStatement),
    /// `DROP TABLE name`.
    DropTable {
        /// The table to drop.
        name: String,
    },
    /// `DECLARE @name type`
    Declare {
        /// Variable name (without the `@`).
        name: String,
        /// Declared type.
        ty: DataType,
    },
    /// `SET @name = expr`
    SetVariable {
        /// Variable name (without the `@`).
        name: String,
        /// The value expression.
        expr: Expr,
    },
    /// `EXPLAIN VERIFY <select>`: plan the query and run the static plan
    /// verifier over it, reporting the check summary or the violations
    /// instead of executing.
    ExplainVerify(SelectStatement),
    /// `PUBLISH RELEASE drN`: atomically publish the current database state
    /// as an immutable named release (admin surface only).
    PublishRelease {
        /// The new release's name (`dr1`, `dr2`, ...).
        id: String,
    },
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `TOP n`
    pub top: Option<u64>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The select list.
    pub projections: Vec<SelectItem>,
    /// `INTO ##temp` target.
    pub into: Option<String>,
    /// The FROM clause, in join order.
    pub from: Vec<FromItem>,
    /// The WHERE predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `AS OF drN`: pin the whole statement to a published release
    /// snapshot instead of the live head database.
    pub as_of: Option<String>,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// The `AS` alias, if given.
        alias: Option<String>,
    },
}

/// One entry of the FROM clause (the first has `join = None`).
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// What is being scanned (table, view, TVF or derived table).
    pub source: TableSource,
    /// The `AS` alias, if given.
    pub alias: Option<String>,
    /// How this item joins with everything to its left (None for the first
    /// item or comma-separated items, which behave like inner joins with the
    /// predicate living in WHERE).
    pub join: Option<JoinKind>,
    /// `ON` condition for explicit joins.
    pub on: Option<Expr>,
}

/// What a FROM item refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// A named table or view (possibly a `##temp`).
    Named(String),
    /// A table-valued function call, e.g. `fGetNearbyObjEq(185, -0.5, 1)`.
    Function {
        /// Function name.
        name: String,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// A derived table `(SELECT ...)`.
    Derived(Box<SelectStatement>),
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN`.
    Cross,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// The sort key (an output alias or any input expression).
    pub expr: Expr,
    /// `ASC` (default) vs `DESC`.
    pub ascending: bool,
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    /// The target table.
    pub table: String,
    /// Explicit column list (empty = all columns in order).
    pub columns: Vec<String>,
    /// Where the rows come from.
    pub source: InsertSource,
}

/// Source of inserted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (...), (...)` row literals.
    Values(Vec<Vec<Expr>>),
    /// `INSERT ... SELECT`.
    Select(Box<SelectStatement>),
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    /// The target table.
    pub table: String,
    /// `SET column = expr` pairs.
    pub assignments: Vec<(String, Expr)>,
    /// The WHERE predicate (None updates every row).
    pub selection: Option<Expr>,
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    /// The target table.
    pub table: String,
    /// The WHERE predicate (None deletes every row).
    pub selection: Option<Expr>,
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStatement {
    /// The new table's name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<ColumnSpec>,
    /// `PRIMARY KEY (...)` columns (empty = none).
    pub primary_key: Vec<String>,
}

/// One column of a CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

/// `CREATE [UNIQUE] INDEX name ON table (cols) [INCLUDE (cols)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndexStatement {
    /// Index name.
    pub name: String,
    /// The indexed table.
    pub table: String,
    /// Key columns, in order.
    pub columns: Vec<String>,
    /// `INCLUDE` (covered, non-key) columns.
    pub include: Vec<String>,
    /// `UNIQUE` index?
    pub unique: bool,
}

/// `CREATE VIEW name AS SELECT ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateViewStatement {
    /// View name.
    pub name: String,
    /// The view body.
    pub query: SelectStatement,
    /// The view body's text, as written: what the catalog stores.
    pub source: String,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified by a table alias.
    Column {
        /// The table alias, when written `alias.column`.
        qualifier: Option<String>,
        /// The column name.
        name: String,
    },
    /// `@variable`.
    Variable(String),
    /// `*` (only valid inside `count(*)`).
    Star,
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call: built-ins, aggregates and `dbo.`-prefixed UDFs.
    Function {
        /// Function name as written.
        name: String,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// `expr IN (a, b, c)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The list members.
        list: Vec<Expr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `expr LIKE pattern`.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern (`%`/`_` wildcards).
        pattern: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `CASE WHEN cond THEN val ... [ELSE val] END`.
    Case {
        /// `(condition, value)` branches, in order.
        branches: Vec<(Expr, Expr)>,
        /// The `ELSE` value, if given.
        else_value: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// The target type.
        ty: DataType,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation (`-x`).
    Neg,
    /// Logical negation (`NOT x`).
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are the operators themselves
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    BitAnd,
    BitOr,
}

impl BinaryOp {
    /// Is this a comparison operator (useful for sargability analysis)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// The mirrored comparison (for `literal op column` normalisation).
    pub fn mirror(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
        };
        f.write_str(s)
    }
}

impl Expr {
    /// Convenience constructor for unqualified column references.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for integer literals.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Call `f` on each operand of the expression, left to right.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Variable(_) | Expr::Star => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                f(expr)
            }
            Expr::Binary { left, right, .. }
            | Expr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Between {
                expr, low, high, ..
            } => [expr, low, high].into_iter().for_each(|e| f(e)),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Case {
                branches,
                else_value,
            } => {
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                else_value.iter().for_each(|e| f(e));
            }
        }
    }

    /// Collect every column reference in the expression (qualifier, name).
    pub fn collect_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        if let Expr::Column { qualifier, name } = self {
            out.push((qualifier.clone(), name.clone()));
        }
        self.for_each_child(|e| e.collect_columns(out));
    }

    /// Is this an aggregate function call?
    pub fn is_aggregate_call(&self) -> bool {
        matches!(self, Expr::Function { name, .. } if is_aggregate_name(name))
    }

    /// Does this expression contain an aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = self.is_aggregate_call();
        self.for_each_child(|e| found = found || e.contains_aggregate());
        found
    }

    /// Split an expression into its top-level AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuild an expression from conjuncts (None when the list is empty).
    pub fn from_conjuncts(conjuncts: Vec<Expr>) -> Option<Expr> {
        conjuncts.into_iter().reduce(|acc, e| Expr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new(e),
        })
    }
}

/// Aggregate function names recognised by the engine.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "count" | "sum" | "avg" | "min" | "max" | "stdev" | "var"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting_and_rebuilding() {
        let e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(Expr::col("a")),
                op: BinaryOp::Gt,
                right: Box::new(Expr::int(1)),
            }),
            op: BinaryOp::And,
            right: Box::new(Expr::Binary {
                left: Box::new(Expr::col("b")),
                op: BinaryOp::Eq,
                right: Box::new(Expr::int(2)),
            }),
        };
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 2);
        let rebuilt = Expr::from_conjuncts(cs.into_iter().cloned().collect()).unwrap();
        assert_eq!(rebuilt, e);
        assert!(Expr::from_conjuncts(vec![]).is_none());
    }

    #[test]
    fn collect_columns_finds_nested_references() {
        let e = Expr::Function {
            name: "sqrt".into(),
            args: vec![Expr::Binary {
                left: Box::new(Expr::Column {
                    qualifier: Some("r".into()),
                    name: "rowv".into(),
                }),
                op: BinaryOp::Mul,
                right: Box::new(Expr::col("colv")),
            }],
        };
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], (Some("r".into()), "rowv".into()));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "COUNT".into(),
            args: vec![Expr::Star],
        };
        assert!(agg.contains_aggregate());
        let plain = Expr::Function {
            name: "sqrt".into(),
            args: vec![Expr::col("x")],
        };
        assert!(!plain.contains_aggregate());
        let nested = Expr::Binary {
            left: Box::new(plain),
            op: BinaryOp::Add,
            right: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
    }

    #[test]
    fn mirror_comparisons() {
        assert_eq!(BinaryOp::Lt.mirror(), BinaryOp::Gt);
        assert_eq!(BinaryOp::GtEq.mirror(), BinaryOp::LtEq);
        assert_eq!(BinaryOp::Eq.mirror(), BinaryOp::Eq);
        assert!(BinaryOp::Eq.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
    }
}
