//! A minimal proleptic-Gregorian calendar date.
//!
//! The paper's Time dimension is encoded in the `date` column of the fact
//! table and extracted with the built-in functions `YEAR`, `MONTH`, and `DAY`
//! (Section 1.1). We therefore need a real date type with correct calendar
//! arithmetic, not just a string.

/// A calendar date, stored as (year, month, day).
///
/// Supports years 1..=9999, which comfortably covers generated workloads.
/// Ordering is chronological.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

/// Cumulative days before the start of each month in a non-leap year.
const CUM_DAYS: [u32; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

impl Date {
    /// Construct a date, validating calendar correctness.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if !(1..=9999).contains(&year) || !(1..=12).contains(&month) {
            return None;
        }
        if day == 0 || u32::from(day) > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// The year component.
    pub fn year(self) -> i32 {
        self.year
    }

    /// The month component (1-12).
    pub fn month(self) -> u8 {
        self.month
    }

    /// The day-of-month component (1-31).
    pub fn day(self) -> u8 {
        self.day
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut parts = s.split('-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Date::new(year, month, day)
    }

    /// Days since 0001-01-01 (day 0). Used for uniform random generation and
    /// date ordering in the engine.
    pub fn to_day_number(self) -> i64 {
        let y = i64::from(self.year) - 1;
        let leap_days = y / 4 - y / 100 + y / 400;
        let mut days = y * 365 + leap_days;
        days += i64::from(CUM_DAYS[self.month as usize - 1]);
        if self.month > 2 && is_leap_year(self.year) {
            days += 1;
        }
        days + i64::from(self.day) - 1
    }

    /// Inverse of [`Date::to_day_number`].
    pub fn from_day_number(mut n: i64) -> Option<Date> {
        if n < 0 {
            return None;
        }
        // 400-year cycles of 146097 days keep the search bounded.
        let cycles = n / 146_097;
        n %= 146_097;
        let mut year = (cycles * 400 + 1) as i32;
        loop {
            let len = if is_leap_year(year) { 366 } else { 365 };
            if n < len {
                break;
            }
            n -= len;
            year += 1;
        }
        let mut month = 1u8;
        loop {
            let len = i64::from(days_in_month(year, month));
            if n < len {
                break;
            }
            n -= len;
            month += 1;
        }
        Date::new(year, month, (n + 1) as u8)
    }
}

/// True when `year` is a Gregorian leap year.
fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month of the given year.
fn days_in_month(year: i32, month: u8) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Date::new(2000, 2, 29).is_some());
        assert!(Date::new(1999, 2, 29).is_none());
        assert!(Date::new(2000, 13, 1).is_none());
        assert!(Date::new(2000, 0, 1).is_none());
        assert!(Date::new(2000, 4, 31).is_none());
        assert!(Date::new(0, 1, 1).is_none());
        assert!(Date::new(10000, 1, 1).is_none());
    }

    #[test]
    fn parse_and_display() {
        let d = Date::parse("1997-06-09").unwrap();
        assert_eq!((d.year(), d.month(), d.day()), (1997, 6, 9));
        assert_eq!(d.to_string(), "1997-06-09");
        assert!(Date::parse("1997-6").is_none());
        assert!(Date::parse("1997-02-30").is_none());
        assert!(Date::parse("1997-06-09-01").is_none());
    }

    #[test]
    fn chronological_ordering() {
        let a = Date::parse("1990-12-31").unwrap();
        let b = Date::parse("1991-01-01").unwrap();
        let c = Date::parse("1991-01-02").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn day_number_round_trip_samples() {
        for s in [
            "0001-01-01",
            "0004-02-29",
            "1900-02-28",
            "1970-01-01",
            "2000-02-29",
            "2000-03-01",
            "1991-07-15",
            "9999-12-31",
        ] {
            let d = Date::parse(s).unwrap();
            assert_eq!(Date::from_day_number(d.to_day_number()), Some(d), "{s}");
        }
    }

    #[test]
    fn day_number_is_dense() {
        let start = Date::parse("1999-12-25").unwrap().to_day_number();
        let mut prev = Date::from_day_number(start).unwrap();
        for i in 1..400 {
            let next = Date::from_day_number(start + i).unwrap();
            assert!(next > prev);
            prev = next;
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(1996));
        assert!(!is_leap_year(1999));
    }
}
