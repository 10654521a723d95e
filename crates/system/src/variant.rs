//! The paper's policy/execution variant lineup — the single canonical
//! definition shared by the system runtime, the `corki` facade and the
//! experiments CLI.
//!
//! `Variant` serializes as its canonical table name (`"Corki-3"`,
//! `"Corki-ADAP"`, …) and deserializes through [`FromStr`], so scenario
//! files, result rows and CLI flags all speak the same label language.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The policy/execution variants evaluated in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Variant {
    /// The RoboFlamingo baseline: one inference, one control step and one
    /// frame upload per camera frame.
    RoboFlamingo,
    /// Corki with a fixed number of executed steps per predicted trajectory
    /// (`Corki-1` … `Corki-9`), control on the accelerator.
    CorkiFixed(usize),
    /// Corki with the adaptive trajectory length of Algorithm 1
    /// (`Corki-ADAP`), control on the accelerator.
    CorkiAdaptive,
    /// Corki-SW: the Corki-5 execution model but with control kept on the
    /// robot's CPU.
    CorkiSoftware,
}

impl Variant {
    /// The variants evaluated in Fig. 13 of the paper, in order.
    pub fn paper_lineup() -> Vec<Variant> {
        vec![
            Variant::RoboFlamingo,
            Variant::CorkiFixed(1),
            Variant::CorkiFixed(3),
            Variant::CorkiFixed(5),
            Variant::CorkiFixed(7),
            Variant::CorkiFixed(9),
            Variant::CorkiAdaptive,
            Variant::CorkiSoftware,
        ]
    }

    /// Display name matching the paper's tables (same as [`fmt::Display`]).
    pub fn name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::RoboFlamingo => write!(f, "RoboFlamingo"),
            Variant::CorkiFixed(n) => write!(f, "Corki-{n}"),
            Variant::CorkiAdaptive => write!(f, "Corki-ADAP"),
            Variant::CorkiSoftware => write!(f, "Corki-SW"),
        }
    }
}

/// Error produced when parsing an unknown variant name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVariantError(String);

impl fmt::Display for ParseVariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown variant `{}` (expected RoboFlamingo, Corki-<steps>, Corki-ADAP or Corki-SW)",
            self.0
        )
    }
}

impl std::error::Error for ParseVariantError {}

impl FromStr for Variant {
    type Err = ParseVariantError;

    /// Parses the paper's table names, case-insensitively:
    /// `RoboFlamingo`, `Corki-<steps>`, `Corki-ADAP`, `Corki-SW`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "roboflamingo" => return Ok(Variant::RoboFlamingo),
            "corki-adap" => return Ok(Variant::CorkiAdaptive),
            "corki-sw" => return Ok(Variant::CorkiSoftware),
            _ => {}
        }
        if let Some(steps) = lower.strip_prefix("corki-") {
            if let Ok(n) = steps.parse::<usize>() {
                if n >= 1 {
                    return Ok(Variant::CorkiFixed(n));
                }
            }
        }
        Err(ParseVariantError(s.to_owned()))
    }
}

impl Serialize for Variant {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name())
    }
}

impl Deserialize for Variant {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name = value.as_str().ok_or_else(|| serde::Error::custom("expected variant name"))?;
        name.parse().map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_names_match_the_paper() {
        let names: Vec<String> = Variant::paper_lineup().iter().map(Variant::name).collect();
        assert_eq!(
            names,
            [
                "RoboFlamingo",
                "Corki-1",
                "Corki-3",
                "Corki-5",
                "Corki-7",
                "Corki-9",
                "Corki-ADAP",
                "Corki-SW"
            ]
        );
    }

    #[test]
    fn every_lineup_name_parses_back_to_its_variant() {
        for variant in Variant::paper_lineup() {
            let parsed: Variant = variant.name().parse().expect("lineup name parses");
            assert_eq!(parsed, variant);
        }
    }

    #[test]
    fn parsing_is_case_insensitive_and_trims() {
        assert_eq!(" roboflamingo ".parse::<Variant>().unwrap(), Variant::RoboFlamingo);
        assert_eq!("CORKI-ADAP".parse::<Variant>().unwrap(), Variant::CorkiAdaptive);
        assert_eq!("corki-7".parse::<Variant>().unwrap(), Variant::CorkiFixed(7));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!("corki".parse::<Variant>().is_err());
        assert!("Corki-0".parse::<Variant>().is_err());
        assert!("Corki-x".parse::<Variant>().is_err());
        assert!("".parse::<Variant>().is_err());
        let err = "what".parse::<Variant>().unwrap_err();
        assert!(err.to_string().contains("what"));
    }

    #[test]
    fn serde_uses_the_canonical_names() {
        for variant in Variant::paper_lineup() {
            let value = variant.to_value();
            assert_eq!(value, serde::Value::String(variant.name()));
            assert_eq!(Variant::from_value(&value).unwrap(), variant);
        }
        assert!(Variant::from_value(&serde::Value::String("Corki-0".into())).is_err());
        assert!(Variant::from_value(&serde::Value::Number(3.0)).is_err());
    }
}
