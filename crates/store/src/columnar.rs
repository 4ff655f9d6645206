//! A columnar analytics table with predicate pushdown.
//!
//! The batch side of the timeliness experiment (E2) scans history; a
//! column layout lets it touch only the columns a query needs and skip
//! row materialisation. Strings are dictionary-encoded. The table also
//! exposes a deliberately naive row-at-a-time scan so benchmarks can
//! show the gap.

use std::collections::HashMap;

use crate::error::StoreError;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Dictionary-encoded string.
    Str,
}

/// A typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A float value.
    F64(f64),
    /// An integer value.
    I64(i64),
    /// A string value.
    Str(String),
}

impl Value {
    fn column_type(&self) -> ColumnType {
        match self {
            Value::F64(_) => ColumnType::F64,
            Value::I64(_) => ColumnType::I64,
            Value::Str(_) => ColumnType::Str,
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Creates a schema from (name, type) pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    /// Column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column count.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A pushdown predicate on a single column.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Numeric column in `[lo, hi]` (either bound may be infinite).
    NumBetween {
        /// Column the predicate applies to.
        column: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// String column equals the given value.
    StrEq {
        /// Column the predicate applies to.
        column: String,
        /// Value the column must equal.
        value: String,
    },
}

#[derive(Debug, Clone)]
enum Column {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Str {
        dict: Vec<String>,
        lookup: HashMap<String, u32>,
        codes: Vec<u32>,
    },
}

impl Column {
    fn new(t: ColumnType) -> Self {
        match t {
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::I64 => Column::I64(Vec::new()),
            ColumnType::Str => Column::Str {
                dict: Vec::new(),
                lookup: HashMap::new(),
                codes: Vec::new(),
            },
        }
    }

    fn push(&mut self, v: Value) -> Result<(), StoreError> {
        match (self, v) {
            (Column::F64(col), Value::F64(x)) => col.push(x),
            (Column::I64(col), Value::I64(x)) => col.push(x),
            (
                Column::Str {
                    dict,
                    lookup,
                    codes,
                },
                Value::Str(s),
            ) => {
                let code = *lookup.entry(s.clone()).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            (col, v) => {
                return Err(StoreError::SchemaMismatch(format!(
                    "cannot store {:?} in {:?} column",
                    v.column_type(),
                    match col {
                        Column::F64(_) => ColumnType::F64,
                        Column::I64(_) => ColumnType::I64,
                        Column::Str { .. } => ColumnType::Str,
                    }
                )))
            }
        }
        Ok(())
    }

    fn value_at(&self, row: usize) -> Value {
        match self {
            Column::F64(v) => Value::F64(v[row]),
            Column::I64(v) => Value::I64(v[row]),
            Column::Str { dict, codes, .. } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    fn numeric_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::F64(v) => Some(v[row]),
            Column::I64(v) => Some(v[row] as f64),
            Column::Str { .. } => None,
        }
    }
}

/// The columnar table; see the module docs.
///
/// # Example
///
/// ```
/// use augur_store::{ColumnTable, ColumnType, Predicate, Schema};
///
/// let schema = Schema::new(vec![("price", ColumnType::F64), ("cat", ColumnType::Str)]);
/// let mut t = ColumnTable::new(schema);
/// t.append(vec![9.5.into(), "food".into()])?;
/// t.append(vec![120.0.into(), "retail".into()])?;
/// let rows = t.select(&[Predicate::StrEq { column: "cat".into(), value: "food".into() }])?;
/// assert_eq!(rows.len(), 1);
/// # Ok::<(), augur_store::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnTable {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|(_, t)| Column::new(*t))
            .collect();
        ColumnTable {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// [`StoreError::SchemaMismatch`] on wrong arity or cell type. On
    /// error the row is not partially applied.
    pub fn append(&mut self, row: Vec<Value>) -> Result<(), StoreError> {
        if row.len() != self.schema.len() {
            return Err(StoreError::SchemaMismatch(format!(
                "expected {} cells, got {}",
                self.schema.len(),
                row.len()
            )));
        }
        // Validate types first so failure cannot leave ragged columns.
        for (i, v) in row.iter().enumerate() {
            let want = self.schema.columns[i].1;
            if v.column_type() != want {
                return Err(StoreError::SchemaMismatch(format!(
                    "column {:?} expects {:?}, got {:?}",
                    self.schema.columns[i].0,
                    want,
                    v.column_type()
                )));
            }
        }
        for (i, v) in row.into_iter().enumerate() {
            // Types were validated above, so this cannot fail; propagating
            // keeps the insert path panic-free.
            self.columns[i].push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    fn matching_rows(&self, predicates: &[Predicate]) -> Result<Vec<usize>, StoreError> {
        let mut selected: Option<Vec<usize>> = None;
        for p in predicates {
            let rows = self.eval_predicate(p)?;
            selected = Some(match selected {
                None => rows,
                Some(prev) => {
                    // Intersect two sorted lists.
                    let set: std::collections::HashSet<usize> = rows.into_iter().collect();
                    prev.into_iter().filter(|r| set.contains(r)).collect()
                }
            });
        }
        Ok(selected.unwrap_or_else(|| (0..self.rows).collect()))
    }

    fn eval_predicate(&self, p: &Predicate) -> Result<Vec<usize>, StoreError> {
        match p {
            Predicate::NumBetween { column, lo, hi } => {
                let idx = self
                    .schema
                    .index_of(column)
                    .ok_or_else(|| StoreError::UnknownColumn(column.clone()))?;
                match &self.columns[idx] {
                    Column::F64(v) => Ok(v
                        .iter()
                        .enumerate()
                        .filter(|(_, x)| **x >= *lo && **x <= *hi)
                        .map(|(i, _)| i)
                        .collect()),
                    Column::I64(v) => Ok(v
                        .iter()
                        .enumerate()
                        .filter(|(_, x)| (**x as f64) >= *lo && (**x as f64) <= *hi)
                        .map(|(i, _)| i)
                        .collect()),
                    Column::Str { .. } => Err(StoreError::SchemaMismatch(format!(
                        "numeric predicate on string column {column:?}"
                    ))),
                }
            }
            Predicate::StrEq { column, value } => {
                let idx = self
                    .schema
                    .index_of(column)
                    .ok_or_else(|| StoreError::UnknownColumn(column.clone()))?;
                match &self.columns[idx] {
                    Column::Str { lookup, codes, .. } => match lookup.get(value) {
                        None => Ok(Vec::new()),
                        Some(code) => Ok(codes
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| *c == code)
                            .map(|(i, _)| i)
                            .collect()),
                    },
                    _ => Err(StoreError::SchemaMismatch(format!(
                        "string predicate on non-string column {column:?}"
                    ))),
                }
            }
        }
    }

    /// Rows (fully materialised) matching all predicates.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] / [`StoreError::SchemaMismatch`].
    pub fn select(&self, predicates: &[Predicate]) -> Result<Vec<Vec<Value>>, StoreError> {
        Ok(self
            .matching_rows(predicates)?
            .into_iter()
            .map(|r| self.columns.iter().map(|c| c.value_at(r)).collect())
            .collect())
    }

    /// Sum of a numeric column over rows matching the predicates,
    /// touching only the needed columns (the pushdown fast path).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] / [`StoreError::SchemaMismatch`].
    pub fn sum(&self, column: &str, predicates: &[Predicate]) -> Result<f64, StoreError> {
        let idx = self
            .schema
            .index_of(column)
            .ok_or_else(|| StoreError::UnknownColumn(column.to_string()))?;
        let rows = self.matching_rows(predicates)?;
        let col = &self.columns[idx];
        let mut total = 0.0;
        for r in rows {
            total += col.numeric_at(r).ok_or_else(|| {
                StoreError::SchemaMismatch(format!("sum over non-numeric column {column:?}"))
            })?;
        }
        Ok(total)
    }

    /// Mean of a numeric column over matching rows (`None` if no rows).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ColumnTable::sum`].
    pub fn mean(&self, column: &str, predicates: &[Predicate]) -> Result<Option<f64>, StoreError> {
        let rows = self.matching_rows(predicates)?;
        if rows.is_empty() {
            return Ok(None);
        }
        let n = rows.len() as f64;
        Ok(Some(self.sum(column, predicates)? / n))
    }

    /// Row-at-a-time full-materialisation scan computing the same sum —
    /// the naive baseline benchmarked against [`ColumnTable::sum`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ColumnTable::sum`].
    pub fn sum_rowwise(&self, column: &str, predicates: &[Predicate]) -> Result<f64, StoreError> {
        let idx = self
            .schema
            .index_of(column)
            .ok_or_else(|| StoreError::UnknownColumn(column.to_string()))?;
        let mut total = 0.0;
        for r in 0..self.rows {
            // Materialise the whole row, then test predicates on it.
            let row: Vec<Value> = self.columns.iter().map(|c| c.value_at(r)).collect();
            let mut keep = true;
            for p in predicates {
                keep &= match p {
                    Predicate::NumBetween { column, lo, hi } => {
                        let i = self
                            .schema
                            .index_of(column)
                            .ok_or_else(|| StoreError::UnknownColumn(column.clone()))?;
                        match &row[i] {
                            Value::F64(x) => *x >= *lo && *x <= *hi,
                            Value::I64(x) => (*x as f64) >= *lo && (*x as f64) <= *hi,
                            Value::Str(_) => {
                                return Err(StoreError::SchemaMismatch(
                                    "numeric predicate on string column".into(),
                                ))
                            }
                        }
                    }
                    Predicate::StrEq { column, value } => {
                        let i = self
                            .schema
                            .index_of(column)
                            .ok_or_else(|| StoreError::UnknownColumn(column.clone()))?;
                        matches!(&row[i], Value::Str(s) if s == value)
                    }
                };
            }
            if keep {
                total += match &row[idx] {
                    Value::F64(x) => *x,
                    Value::I64(x) => *x as f64,
                    Value::Str(_) => {
                        return Err(StoreError::SchemaMismatch(
                            "sum over non-numeric column".into(),
                        ))
                    }
                };
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ColumnTable {
        let schema = Schema::new(vec![
            ("price", ColumnType::F64),
            ("qty", ColumnType::I64),
            ("cat", ColumnType::Str),
        ]);
        let mut t = ColumnTable::new(schema);
        for i in 0..100i64 {
            let cat = if i % 3 == 0 { "food" } else { "retail" };
            t.append(vec![(i as f64).into(), i.into(), cat.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn append_validates_arity_and_types() {
        let mut t = table();
        assert!(matches!(
            t.append(vec![1.0.into()]),
            Err(StoreError::SchemaMismatch(_))
        ));
        assert!(matches!(
            t.append(vec![1.0.into(), 2.0.into(), "x".into()]),
            Err(StoreError::SchemaMismatch(_))
        ));
        assert_eq!(t.len(), 100, "failed appends must not change the table");
    }

    #[test]
    fn select_with_predicates() {
        let t = table();
        let rows = t
            .select(&[
                Predicate::NumBetween {
                    column: "price".into(),
                    lo: 10.0,
                    hi: 20.0,
                },
                Predicate::StrEq {
                    column: "cat".into(),
                    value: "food".into(),
                },
            ])
            .unwrap();
        // Multiples of 3 in [10, 20]: 12, 15, 18.
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_eq!(row[2], Value::Str("food".into()));
        }
    }

    #[test]
    fn select_no_predicates_returns_everything() {
        let t = table();
        assert_eq!(t.select(&[]).unwrap().len(), 100);
    }

    #[test]
    fn sum_and_mean_agree_with_rowwise() {
        let t = table();
        let preds = [Predicate::StrEq {
            column: "cat".into(),
            value: "retail".into(),
        }];
        let fast = t.sum("price", &preds).unwrap();
        let slow = t.sum_rowwise("price", &preds).unwrap();
        assert_eq!(fast, slow);
        let mean = t.mean("price", &preds).unwrap().unwrap();
        assert!((mean - fast / 66.0).abs() < 1e-9);
    }

    #[test]
    fn mean_of_empty_selection_is_none() {
        let t = table();
        let preds = [Predicate::StrEq {
            column: "cat".into(),
            value: "nonexistent".into(),
        }];
        assert_eq!(t.mean("price", &preds).unwrap(), None);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        assert!(matches!(
            t.sum("nope", &[]),
            Err(StoreError::UnknownColumn(_))
        ));
        assert!(matches!(
            t.select(&[Predicate::NumBetween {
                column: "nope".into(),
                lo: 0.0,
                hi: 1.0
            }]),
            Err(StoreError::UnknownColumn(_))
        ));
    }

    #[test]
    fn type_mismatched_predicates_error() {
        let t = table();
        assert!(matches!(
            t.select(&[Predicate::NumBetween {
                column: "cat".into(),
                lo: 0.0,
                hi: 1.0
            }]),
            Err(StoreError::SchemaMismatch(_))
        ));
        assert!(matches!(
            t.select(&[Predicate::StrEq {
                column: "price".into(),
                value: "x".into()
            }]),
            Err(StoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn dictionary_encoding_deduplicates() {
        let t = table();
        // Internal check via behaviour: equality select on either value
        // partitions the rows exactly.
        let food = t
            .select(&[Predicate::StrEq {
                column: "cat".into(),
                value: "food".into(),
            }])
            .unwrap()
            .len();
        let retail = t
            .select(&[Predicate::StrEq {
                column: "cat".into(),
                value: "retail".into(),
            }])
            .unwrap()
            .len();
        assert_eq!(food + retail, 100);
    }

    #[test]
    fn i64_numeric_predicates_work() {
        let t = table();
        let rows = t
            .select(&[Predicate::NumBetween {
                column: "qty".into(),
                lo: 98.0,
                hi: 200.0,
            }])
            .unwrap();
        assert_eq!(rows.len(), 2);
    }
}
