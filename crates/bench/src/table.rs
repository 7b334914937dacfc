//! Minimal fixed-width table printing for the experiment reports.

/// Print a table title with a rule.
pub fn title(t: &str) {
    println!();
    println!("== {t}");
    println!("{}", "-".repeat(72));
}

/// Print a header row (right-aligned, 12-wide columns after the first).
pub fn header(first: &str, cols: &[String]) {
    print!("{first:<28}");
    for c in cols {
        print!("{c:>12}");
    }
    println!();
}

/// Print a data row of f64 values with one decimal.
pub fn row_f64(label: &str, vals: &[f64]) {
    print!("{label:<28}");
    for v in vals {
        print!("{v:>12.1}");
    }
    println!();
}
