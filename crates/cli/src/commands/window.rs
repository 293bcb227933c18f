//! `tsdtw window` — brute-force optimal-warping-window search on a
//! UCR-format file (the archive's procedure; the paper's Fig. 2a).

use std::path::Path;

use crate::args::Args;
use tsdtw_datasets::ucr_format::load_ucr_file;
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::wselect::{integer_grid, optimal_window_par};
use tsdtw_mining::ParConfig;

pub const HELP: &str = "\
tsdtw window --file FILE [--max-w PCT] [--threads N]
  LOOCV 1-NN error at every integer window 0..max-w (default 20); prints the
  full profile and the winner (ties break toward the smaller window); the
  profile is bitwise identical at every --threads value (default 1)";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, &["file", "max-w", "threads"], &[])?;
    let data = load_ucr_file(Path::new(args.required("file")?))?;
    let max_w: usize = args.get_or("max-w", 20)?;
    let par = ParConfig::new(args.get_or("threads", 1)?)?;
    let view = LabeledView::new(&data.series, &data.labels)?;
    let search = optimal_window_par(&view, &integer_grid(max_w), &par)?;

    let mut out = format!(
        "{} series, length {}, {} classes; LOOCV over w = 0..{max_w}%\n",
        data.len(),
        data.series_len(),
        data.n_classes()
    );
    out.push_str(&format!("{:>6}{:>12}\n", "w (%)", "error"));
    for (w, e) in &search.profile {
        let marker = if (*w - search.best_w_percent).abs() < 1e-9 {
            "  <- best"
        } else {
            ""
        };
        out.push_str(&format!("{w:>6}{e:>12.4}{marker}\n"));
    }
    out.push_str(&format!(
        "optimal w = {}% (error {:.4})\n",
        search.best_w_percent, search.best_error
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_datasets::cbf::dataset;
    use tsdtw_datasets::ucr_format::write_ucr;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn produces_a_profile_and_winner() {
        let dir = crate::test_dir("window-produces_a_profile_and_winner");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dataset(48, 6, 3).unwrap();
        let p = dir.join("data.tsv");
        let mut f = std::fs::File::create(&p).unwrap();
        write_ucr(&data, &mut f).unwrap();

        let out = run(&raw(&["--file", p.to_str().unwrap(), "--max-w", "8"])).unwrap();
        assert!(out.contains("optimal w ="), "{out}");
        assert!(out.contains("<- best"), "{out}");
        // Profile has 9 grid rows.
        assert!(out.matches('\n').count() >= 11, "{out}");
    }
}
