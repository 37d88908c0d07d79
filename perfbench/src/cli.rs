//! Command-line arguments.

pub const USAGE: &str =
    "usage: perfbench --workload analytics|route|live [--seed N] [--seconds S] \
[--trace 0|1] [--size full|tiny] [--inject none|refuse|corrupt]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Analytics,
    Route,
    Live,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytics => "analytics",
            Workload::Route => "route",
            Workload::Live => "live",
        }
    }
}

/// `Tiny` shrinks every input so the self-test runs all three workloads in
/// a few seconds; the measured configuration is always `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Deliberate faults for the self-test: each must raise the failed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// The first open-loop submission is treated as refused
    /// (`SubmitError::QueueFull`) instead of being sent.
    Refuse,
    /// The first checked answer is altered before it is compared.
    Corrupt,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    pub inject: Inject,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::Analytics,
            seed: 1,
            seconds: 25,
            trace: false,
            size: Size::Full,
            inject: Inject::None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "analytics" => Workload::Analytics,
                        "route" => Workload::Route,
                        "live" => Workload::Live,
                        _ => return Err(format!("unknown workload {value:?}")),
                    })
                }
                "--seed" => args.seed = parse_num(&flag, &value)?,
                "--seconds" => {
                    args.seconds = parse_num(&flag, &value)?;
                    if !(1..=600).contains(&args.seconds) {
                        return Err("--seconds must be within 1..=600".into());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--size" => {
                    args.size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err("--size takes full or tiny".into()),
                    }
                }
                "--inject" => {
                    args.inject = match value.as_str() {
                        "none" => Inject::None,
                        "refuse" => Inject::Refuse,
                        "corrupt" => Inject::Corrupt,
                        _ => return Err("--inject takes none, refuse or corrupt".into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

fn parse_num(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
}
