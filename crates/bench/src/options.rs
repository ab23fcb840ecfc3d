//! Experiment options and a dependency-free CLI argument parser.

use delorean_trace::{Scale, SPEC2006_NAMES};

/// Options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    /// Experiment scale (default: demo).
    pub scale: Scale,
    /// Workload suite seed.
    pub seed: u64,
    /// Restrict the suite to names containing this substring (it must
    /// match at least one suite workload).
    pub filter: Option<String>,
    /// Override the region count (at least 1).
    pub regions: Option<u32>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: Scale::demo(),
            seed: 42,
            filter: None,
            regions: None,
        }
    }
}

impl ExpOptions {
    /// Quick options for tests: tiny scale, 3 regions.
    pub fn tiny() -> Self {
        ExpOptions {
            scale: Scale::tiny(),
            regions: Some(3),
            ..Default::default()
        }
    }

    /// Parse from `std::env::args`-style strings:
    /// `--scale demo|tiny|paper`, `--seed N`, `--filter NAME`,
    /// `--regions N`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, malformed values, a
    /// zero region count, or a filter that selects no workload.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match value("--scale")?.as_str() {
                        "paper" => Scale::paper(),
                        "demo" => Scale::demo(),
                        "tiny" => Scale::tiny(),
                        other => return Err(format!("unknown scale '{other}'")),
                    };
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--filter" => {
                    let filter = value("--filter")?;
                    if !SPEC2006_NAMES.iter().any(|n| n.contains(filter.as_str())) {
                        return Err(format!("filter '{filter}' matches no workload"));
                    }
                    opts.filter = Some(filter);
                }
                "--regions" => {
                    let regions: u32 = value("--regions")?
                        .parse()
                        .map_err(|e| format!("bad region count: {e}"))?;
                    if regions == 0 {
                        return Err("bad region count: must be at least 1".to_string());
                    }
                    opts.regions = Some(regions);
                }
                other => {
                    return Err(format!(
                        "unknown flag '{other}'; supported: --scale demo|tiny|paper, \
                         --seed N, --filter NAME, --regions N"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// Parse the process arguments, exiting with a usage message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// `true` if `name` passes the filter.
    pub fn selected(&self, name: &str) -> bool {
        match self.filter.as_deref() {
            None => true,
            Some(f) => name.contains(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::demo());
        assert_eq!(o.seed, 42);
        assert!(o.selected("anything"));
    }

    #[test]
    fn full_flags() {
        let o = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--filter",
            "lbm",
            "--regions",
            "4",
        ])
        .unwrap();
        assert_eq!(o.scale, Scale::tiny());
        assert_eq!(o.seed, 7);
        assert!(o.selected("lbm"));
        assert!(!o.selected("mcf"));
        assert_eq!(o.regions, Some(4));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--scale", "giant"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--regions", "0"]).is_err());
        assert!(parse(&["--filter", "zzz"]).is_err());
    }
}
