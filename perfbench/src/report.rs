//! Metric rows, the attempted/failed tally, and the one-line JSON result.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// Whether the value is an exact count that must repeat for a fixed
    /// seed (as opposed to a wall-clock measurement).
    pub exact: bool,
}

/// An ordered set of metric rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Rows in report order.
    pub rows: Vec<Row>,
}

impl Metrics {
    /// Adds a wall-clock (or wall-clock-derived) value.
    pub fn time(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, false);
    }

    /// Adds an exact count (or a ratio of exact counts).
    pub fn count(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, true);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, exact: bool) {
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.rows.push(Row {
            name,
            value,
            unit,
            exact,
        });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name,
                    json_number(r.value),
                    r.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values cannot be written as JSON and
/// become `-1`, which no metric can legitimately take).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "-1".to_string()
    }
}

/// Operations attempted and the ones that failed, by request id.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted: compiles, kernel runs, jobs, self-checks.
    pub attempted: u64,
    /// `(request id, what went wrong)` for every failed operation.
    pub failures: Vec<(String, String)>,
}

impl Tally {
    /// Counts one attempt that passed when `ok`, failed otherwise.
    pub fn check(&mut self, ok: bool, req: impl Into<String>, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push((req.into(), why()));
        }
    }

    /// Counts one attempt that passed.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempt that failed.
    pub fn fail(&mut self, req: impl Into<String>, why: impl Into<String>) {
        self.attempted += 1;
        self.failures.push((req.into(), why.into()));
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Share of attempts that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed() as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed(),
            metrics.to_json()
        )
    }
}
