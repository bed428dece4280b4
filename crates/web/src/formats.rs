//! Result output formats (§4).
//!
//! SkyServerQA "provides results in three formats: Grid Based for quick
//! viewing, Column Separated Values (CSV) ASCII for use in spreadsheets and
//! text tools, XML for applications that can read XML data, FITS, a file
//! format widely used in astronomy."  The web SQL page exposes the same
//! formats plus JSON (for the modern tooling this reproduction targets).

use skyserver_sql::ResultSet;
use skyserver_storage::{csv_escape, Value};
use std::fmt::Write as _;

/// The outcome of `Accept`-header negotiation
/// ([`OutputFormat::from_accept`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptNegotiation {
    /// A listed media type maps to this format.
    Format(OutputFormat),
    /// The client takes anything (`*/*`, or no/empty header): the caller
    /// picks its default.
    Any,
    /// Nothing listed is servable; the API answers `406`.
    Unacceptable,
}

/// The supported output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable aligned grid (the default).
    Grid,
    /// RFC 4180-style comma-separated values.
    Csv,
    /// Simple row/column XML.
    Xml,
    /// `{"columns": [...], "rows": [[...]]}` JSON.
    Json,
    /// A FITS-style ASCII table (80-column header cards).
    Fits,
}

impl OutputFormat {
    /// Every supported format, in documentation order.
    pub const ALL: [OutputFormat; 5] = [
        OutputFormat::Grid,
        OutputFormat::Csv,
        OutputFormat::Xml,
        OutputFormat::Json,
        OutputFormat::Fits,
    ];

    /// The lower-case name used in `?format=` parameters and the API spec.
    pub fn name(self) -> &'static str {
        match self {
            OutputFormat::Grid => "grid",
            OutputFormat::Csv => "csv",
            OutputFormat::Xml => "xml",
            OutputFormat::Json => "json",
            OutputFormat::Fits => "fits",
        }
    }

    /// Parse the `format=` query parameter strictly: `None` for unknown
    /// names.  The `/api/v1` surface turns `None` into a structured `400`
    /// listing the supported formats.
    pub fn try_parse(s: &str) -> Option<OutputFormat> {
        match s.to_ascii_lowercase().as_str() {
            "grid" => Some(OutputFormat::Grid),
            "csv" => Some(OutputFormat::Csv),
            "xml" => Some(OutputFormat::Xml),
            "json" => Some(OutputFormat::Json),
            "fits" => Some(OutputFormat::Fits),
            _ => None,
        }
    }

    /// Parse the `format=` query parameter with the legacy fallback:
    /// unknown names render as the grid (the `.asp`-era pages always
    /// produced *something*; existing links must keep working).
    pub fn parse(s: &str) -> OutputFormat {
        OutputFormat::try_parse(s).unwrap_or(OutputFormat::Grid)
    }

    /// Content negotiation from an `Accept` header value: the first media
    /// type we can serve wins (listed order, q-values ignored).
    pub fn from_accept(header: &str) -> AcceptNegotiation {
        let mut saw_item = false;
        for item in header.split(',') {
            let media = item
                .split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase();
            if media.is_empty() {
                continue;
            }
            saw_item = true;
            match media.as_str() {
                "*/*" | "application/*" => return AcceptNegotiation::Any,
                "application/json" => return AcceptNegotiation::Format(OutputFormat::Json),
                "text/csv" => return AcceptNegotiation::Format(OutputFormat::Csv),
                "application/xml" | "text/xml" => {
                    return AcceptNegotiation::Format(OutputFormat::Xml)
                }
                "text/plain" | "text/*" => return AcceptNegotiation::Format(OutputFormat::Grid),
                "application/fits" | "image/fits" => {
                    return AcceptNegotiation::Format(OutputFormat::Fits)
                }
                _ => {}
            }
        }
        if saw_item {
            AcceptNegotiation::Unacceptable
        } else {
            // An empty Accept header is the same as no header.
            AcceptNegotiation::Any
        }
    }

    /// The HTTP content type of the format.
    pub fn content_type(self) -> &'static str {
        match self {
            OutputFormat::Grid => "text/plain; charset=utf-8",
            OutputFormat::Csv => "text/csv; charset=utf-8",
            OutputFormat::Xml => "application/xml; charset=utf-8",
            OutputFormat::Json => "application/json; charset=utf-8",
            OutputFormat::Fits => "text/plain; charset=utf-8",
        }
    }

    /// Render a result set in this format.
    pub fn render(self, result: &ResultSet) -> String {
        match self {
            OutputFormat::Grid => result.to_grid(),
            OutputFormat::Csv => to_csv(result),
            OutputFormat::Xml => to_xml(result),
            OutputFormat::Json => to_json(result),
            OutputFormat::Fits => to_fits_ascii(result),
        }
    }
}

/// CSV: header line plus one line per row.  Header names go through the
/// same escaping as data fields — a column alias containing a comma or
/// quote must not corrupt the row structure.
pub fn to_csv(result: &ResultSet) -> String {
    let mut out = String::new();
    let header: Vec<String> = result.columns.iter().map(|c| csv_escape(c)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &result.rows {
        let line: Vec<String> = row.iter().map(Value::to_csv_field).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Simple XML: `<root><row><col>value</col>...</row>...</root>`.
pub fn to_xml(result: &ResultSet) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<result>\n");
    for row in &result.rows {
        out.push_str("  <row>");
        for (name, value) in result.columns.iter().zip(row) {
            let tag = sanitize_tag(name);
            out.push_str(&format!(
                "<{tag}>{}</{tag}>",
                escape_xml(&value.to_string())
            ));
        }
        out.push_str("</row>\n");
    }
    out.push_str("</result>\n");
    out
}

/// JSON: `{"columns": [...], "rows": [[...], ...], "truncated": b}`,
/// written straight into the body by the row writer below.
pub fn to_json(result: &ResultSet) -> String {
    let mut out = String::with_capacity(64 + 16 * result.rows.len() * result.columns.len());
    out.push_str("{\"columns\":[");
    for (i, column) in result.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, column);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_row(&mut out, row);
    }
    out.push_str("],\"truncated\":");
    out.push_str(if result.truncated { "true" } else { "false" });
    out.push('}');
    out
}

/// Append `row` to `out` as a JSON array.  The streaming row writer: a
/// page or result renders its rows without building a `serde_json::Value`
/// per row and a `String` per number, byte for byte what the tree of
/// [`value_to_json`]s prints.
pub(crate) fn push_json_row(out: &mut String, row: &[Value]) {
    out.push('[');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_value(out, v);
    }
    out.push(']');
}

/// Append one storage value as JSON (what `value_to_json(v)` prints).
pub(crate) fn push_json_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Int(i) => push_json_int(out, *i),
        Value::Float(f) => push_json_f64(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_json_str(out, s),
        Value::Bytes(b) => push_json_str(out, &skyserver_storage::hex_encode(b)),
    }
}

/// Append an integer as a JSON number.
pub(crate) fn push_json_int(out: &mut String, i: i64) {
    let _ = write!(out, "{i}");
}

/// Append a float through `serde_json::Number`'s `Display`, so integral
/// values keep their `.0` and non-finite ones print `null`, as in the tree.
pub(crate) fn push_json_f64(out: &mut String, f: f64) {
    match serde_json::Number::from_f64(f) {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
}

/// Append a JSON string literal, escaped as the `serde_json` printer does.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One storage value as a JSON value (shared with the API envelope).
pub(crate) fn value_to_json(v: &Value) -> serde_json::Value {
    match v {
        Value::Null => serde_json::Value::Null,
        Value::Int(i) => serde_json::json!(i),
        Value::Float(f) => serde_json::json!(f),
        Value::Bool(b) => serde_json::json!(b),
        Value::Str(s) => serde_json::json!(s.as_ref()),
        Value::Bytes(b) => serde_json::json!(skyserver_storage::hex_encode(b)),
    }
}

/// A FITS-like ASCII table: an 80-column-card header describing the columns
/// followed by fixed-width data rows.  (Real FITS is binary; the paper's
/// tool emits files astronomers feed to their own software -- the header
/// card structure is what matters for recognisability.)
pub fn to_fits_ascii(result: &ResultSet) -> String {
    let mut out = String::new();
    // Pad *and* clamp to the 80-column card width: an over-long column
    // name must not emit an over-long card.
    let card = |text: &str| {
        let clamped: String = text.chars().take(80).collect();
        format!("{clamped:<80}\n")
    };
    out.push_str(&card(
        "SIMPLE  =                    T / SkyServer-RS ASCII table",
    ));
    out.push_str(&card("XTENSION= 'TABLE   '"));
    out.push_str(&card(&format!("TFIELDS = {:>20}", result.columns.len())));
    out.push_str(&card(&format!("NAXIS2  = {:>20}", result.rows.len())));
    for (i, name) in result.columns.iter().enumerate() {
        out.push_str(&card(&format!("TTYPE{:<3}= '{name}'", i + 1)));
    }
    out.push_str(&card("END"));
    for row in &result.rows {
        let line: Vec<String> = row
            .iter()
            .map(|v| format!("{:>16}", v.to_string()))
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

fn sanitize_tag(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        format!("c_{cleaned}")
    } else {
        cleaned
    }
}

/// Escape `&`, `<` and `>` for XML/HTML element content (shared with the
/// site's HTML pages; not sufficient for attribute contexts).
pub(crate) fn escape_xml(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rs() -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "ra".into(), "name".into()],
            rows: vec![
                vec![Value::Int(1), Value::Float(185.5), Value::str("M<64>")],
                vec![
                    Value::Int(2),
                    Value::Float(186.0),
                    Value::str("plain, comma"),
                ],
            ],
            truncated: false,
        }
    }

    /// Cells the streaming writer must print exactly as the tree does:
    /// ints at both ends, floats integral (`60.0`), fractional, huge and
    /// non-finite (`null`), NULL, booleans, strings that need escaping and
    /// bytes as hex.
    pub(crate) fn awkward_cells() -> Vec<Value> {
        vec![
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(60.0),
            Value::Float(-0.0),
            Value::Float(0.1),
            Value::Float(-2.5e-7),
            Value::Float(1e15),
            Value::Float(1.5e300),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::str(""),
            Value::str("quote \" backslash \\ slash /"),
            Value::str("newline \n return \r tab \t bell \u{7} nul \u{0} esc \u{1b}"),
            Value::str("unicode é ✓ \u{1F30C} \u{7f}"),
            Value::Bytes(std::sync::Arc::from(&[0u8, 0xab, 0xff][..])),
        ]
    }

    #[test]
    fn the_json_writer_prints_what_the_value_tree_prints() {
        let cells = awkward_cells();
        let result = ResultSet {
            columns: vec!["objID".into(), "a \"quoted\"\tname\\".into(), String::new()],
            rows: cells
                .chunks(3)
                .map(|c| c.to_vec())
                .chain([vec![], cells.clone()])
                .collect(),
            truncated: true,
        };
        for result in [result, rs(), ResultSet::default()] {
            let rows: Vec<Vec<serde_json::Value>> = result
                .rows
                .iter()
                .map(|row| row.iter().map(value_to_json).collect())
                .collect();
            let tree = serde_json::json!({
                "columns": result.columns,
                "rows": rows,
                "truncated": result.truncated,
            });
            assert_eq!(to_json(&result), tree.to_string());
        }
        for cell in cells {
            let mut out = String::new();
            push_json_value(&mut out, &cell);
            assert_eq!(out, value_to_json(&cell).to_string(), "{cell:?}");
        }
    }

    #[test]
    fn format_parsing_and_content_types() {
        assert_eq!(OutputFormat::parse("CSV"), OutputFormat::Csv);
        assert_eq!(OutputFormat::parse("fits"), OutputFormat::Fits);
        assert_eq!(OutputFormat::parse("anything"), OutputFormat::Grid);
        assert!(OutputFormat::Json.content_type().contains("json"));
        assert!(OutputFormat::Csv.content_type().contains("csv"));
        // The strict parser refuses what the legacy parser defaults.
        assert_eq!(OutputFormat::try_parse("anything"), None);
        assert_eq!(OutputFormat::try_parse("Json"), Some(OutputFormat::Json));
        for format in OutputFormat::ALL {
            assert_eq!(OutputFormat::try_parse(format.name()), Some(format));
        }
    }

    #[test]
    fn accept_header_negotiation() {
        assert_eq!(
            OutputFormat::from_accept("application/json"),
            AcceptNegotiation::Format(OutputFormat::Json)
        );
        assert_eq!(
            OutputFormat::from_accept("text/html, text/csv;q=0.9"),
            AcceptNegotiation::Format(OutputFormat::Csv)
        );
        assert_eq!(OutputFormat::from_accept("*/*"), AcceptNegotiation::Any);
        assert_eq!(OutputFormat::from_accept(""), AcceptNegotiation::Any);
        assert_eq!(
            OutputFormat::from_accept("text/xml"),
            AcceptNegotiation::Format(OutputFormat::Xml)
        );
        assert_eq!(
            OutputFormat::from_accept("image/png"),
            AcceptNegotiation::Unacceptable
        );
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let csv = to_csv(&rs());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "objID,ra,name");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"plain, comma\""));
    }

    #[test]
    fn csv_escapes_header_aliases_with_commas_and_quotes() {
        let result = ResultSet {
            columns: vec!["ra, dec".into(), "the \"best\" mag".into(), "plain".into()],
            rows: vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
            truncated: false,
        };
        let csv = to_csv(&result);
        let lines: Vec<&str> = csv.lines().collect();
        // Three columns must stay three fields: quoted, with doubled quotes.
        assert_eq!(lines[0], "\"ra, dec\",\"the \"\"best\"\" mag\",plain");
        assert_eq!(lines[1], "1,2,3");
    }

    #[test]
    fn xml_escapes_and_produces_rows() {
        let xml = to_xml(&rs());
        assert!(xml.contains("<result>"));
        assert_eq!(xml.matches("<row>").count(), 2);
        assert!(xml.contains("M&lt;64&gt;"));
        assert!(xml.contains("<objID>1</objID>"));
    }

    #[test]
    fn json_round_trips_through_serde() {
        let json = to_json(&rs());
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["columns"].as_array().unwrap().len(), 3);
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 2);
        assert_eq!(parsed["rows"][0][0], serde_json::json!(1));
        assert_eq!(parsed["truncated"], serde_json::json!(false));
    }

    #[test]
    fn fits_header_cards_are_80_columns() {
        let fits = to_fits_ascii(&rs());
        let header_lines: Vec<&str> = fits.lines().take_while(|l| !l.starts_with("END")).collect();
        for line in header_lines {
            assert_eq!(line.len(), 80, "FITS card is not 80 columns: {line:?}");
        }
        assert!(fits.contains("TTYPE1"));
        assert!(fits.contains("NAXIS2"));
    }

    #[test]
    fn fits_cards_clamp_over_long_column_names() {
        let long_alias = "a".repeat(120);
        let result = ResultSet {
            columns: vec![long_alias, "b".into()],
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
            truncated: false,
        };
        let fits = to_fits_ascii(&result);
        let header_lines: Vec<&str> = fits.lines().take_while(|l| !l.starts_with("END")).collect();
        assert!(!header_lines.is_empty());
        for line in header_lines {
            assert_eq!(
                line.chars().count(),
                80,
                "FITS card is not 80 columns: {line:?}"
            );
        }
    }

    #[test]
    fn grid_format_is_human_readable() {
        let grid = OutputFormat::Grid.render(&rs());
        assert!(grid.contains("objID"));
        assert!(grid.contains('|'));
    }
}
