//! `tsdtw generate` — write the synthetic datasets of this workspace to
//! disk, in UCR format (labeled generators) or plain series files.

use std::path::Path;

use crate::args::{ArgError, Args};
use crate::io::write_series;
use tsdtw_datasets::ucr_format::write_ucr;

pub const HELP: &str = "\
tsdtw generate --kind KIND --out PATH [--seed S] [--n LEN] [--count C] [--classes K]
                [--split K]
  KIND (labeled, written as UCR .tsv):
    cbf | two-patterns | gestures | timing-gestures
  KIND (plain series, one value per line; --out is a prefix for pairs):
    random-walk | music-pair | fall-pair | power-morning | adversarial-trio | ecg-strip
  --split K: stratified-split the labeled dataset, writing <out>_TRAIN.tsv and
    <out>_TEST.tsv (every K-th exemplar per class goes to TEST).
    NOTE: gestures/timing-gestures draw their class templates from the seed, so
    train and test MUST come from one generation (use --split), never from two
    runs with different seeds — those describe unrelated class vocabularies.";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(
        raw,
        &["kind", "out", "seed", "n", "count", "classes", "split"],
        &[],
    )?;
    let kind = args.required("kind")?;
    let out_path = args.required("out")?.to_string();
    let seed: u64 = args.get_or("seed", 42)?;
    let n: usize = args.get_or("n", 128)?;
    let count: usize = args.get_or("count", 10)?;
    let classes: usize = args.get_or("classes", 4)?;
    let split: usize = args.get_or("split", 0)?;
    let labeled_kinds = ["cbf", "two-patterns", "gestures", "timing-gestures"];
    if split > 0 && !labeled_kinds.contains(&kind) {
        return Err(Box::new(ArgError(format!(
            "--split only applies to labeled generators ({}), not {kind:?}",
            labeled_kinds.join(", ")
        ))));
    }

    let write_labeled =
        |d: &tsdtw_datasets::LabeledDataset| -> Result<String, Box<dyn std::error::Error>> {
            if split > 0 {
                let (train, test) = d.split_stratified(split)?;
                let stem = out_path.trim_end_matches(".tsv");
                let train_p = format!("{stem}_TRAIN.tsv");
                let test_p = format!("{stem}_TEST.tsv");
                write_ucr(&train, std::fs::File::create(&train_p)?)?;
                write_ucr(&test, std::fs::File::create(&test_p)?)?;
                return Ok(format!(
                    "wrote {} train series to {train_p} and {} test series to {test_p} \
                     (length {}, {} classes, one coherent generation)\n",
                    train.len(),
                    test.len(),
                    d.series_len(),
                    d.n_classes()
                ));
            }
            let f = std::fs::File::create(&out_path)?;
            write_ucr(d, f)?;
            Ok(format!(
                "wrote {} series of length {} ({} classes) to {out_path}\n",
                d.len(),
                d.series_len(),
                d.n_classes()
            ))
        };

    match kind {
        "cbf" => write_labeled(&tsdtw_datasets::cbf::dataset(n, count, seed)?),
        "two-patterns" => write_labeled(&tsdtw_datasets::two_patterns::dataset(n, count, seed)?),
        "gestures" => {
            let config = tsdtw_datasets::gesture::GestureConfig {
                length: n,
                n_classes: classes,
                per_class: count,
                max_shift: n as f64 * 0.05,
                noise_std: 0.1,
                amp_jitter: 0.1,
            };
            write_labeled(&tsdtw_datasets::gesture::uwave_like(&config, seed)?)
        }
        "timing-gestures" => write_labeled(&tsdtw_datasets::gesture::timing_sensitive_gestures(
            n, classes, count, seed,
        )?),
        "random-walk" => {
            let s = tsdtw_datasets::random_walk::random_walk(n, seed)?;
            write_series(Path::new(&out_path), &s)?;
            Ok(format!("wrote a {n}-point random walk to {out_path}\n"))
        }
        "music-pair" => {
            let p = tsdtw_datasets::music::performance_pair(n, n as f64 * 0.0083, seed)?;
            let a = format!("{out_path}.studio.txt");
            let b = format!("{out_path}.live.txt");
            write_series(Path::new(&a), &p.studio)?;
            write_series(Path::new(&b), &p.live)?;
            Ok(format!(
                "wrote {a} and {b} ({n} points, drift {:.0} samples)\n",
                p.max_drift
            ))
        }
        "fall-pair" => {
            let p = tsdtw_datasets::fall::pair(n as f64 / 100.0, seed)?;
            let a = format!("{out_path}.early.txt");
            let b = format!("{out_path}.late.txt");
            write_series(Path::new(&a), &p.early)?;
            write_series(Path::new(&b), &p.late)?;
            Ok(format!("wrote {a} and {b} ({} points)\n", p.len))
        }
        "power-morning" => {
            let m = tsdtw_datasets::power::dishwasher_morning(n.max(120), 30, seed)?;
            write_series(Path::new(&out_path), &m.series)?;
            Ok(format!(
                "wrote a {}-point morning (peaks at {:?}) to {out_path}\n",
                m.series.len(),
                m.peak_centers
            ))
        }
        "adversarial-trio" => {
            let t = tsdtw_datasets::adversarial::trio();
            for (name, s) in [("a", &t.a), ("b", &t.b), ("c", &t.c)] {
                write_series(Path::new(&format!("{out_path}.{name}.txt")), s)?;
            }
            Ok(format!("wrote {out_path}.a/.b/.c.txt (the Table 2 trio)\n"))
        }
        "ecg-strip" => {
            let s = tsdtw_datasets::ecg::rhythm_strip(count.max(1), n.max(40), 0.08, seed)?;
            write_series(Path::new(&out_path), &s)?;
            Ok(format!(
                "wrote a {}-point rhythm strip to {out_path}\n",
                s.len()
            ))
        }
        other => Err(Box::new(ArgError(format!(
            "unknown generator {other:?}; see `tsdtw help generate`"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn labeled_and_plain_generators_write_files() {
        let dir = crate::test_dir("generate-labeled_and_plain_generators_write_files");
        std::fs::create_dir_all(&dir).unwrap();
        for (kind, out) in [
            ("cbf", "cbf.tsv"),
            ("two-patterns", "tp.tsv"),
            ("timing-gestures", "tg.tsv"),
            ("random-walk", "rw.txt"),
            ("power-morning", "pm.txt"),
            ("ecg-strip", "ecg.txt"),
        ] {
            let p = dir.join(out);
            let msg = run(&raw(&[
                "--kind",
                kind,
                "--out",
                p.to_str().unwrap(),
                "--n",
                "128",
                "--count",
                "3",
            ]))
            .unwrap();
            assert!(msg.contains("wrote"), "{kind}: {msg}");
            assert!(p.exists(), "{kind}: no file");
        }
        // Pair + trio generators use the prefix convention.
        let p = dir.join("pair");
        run(&raw(&[
            "--kind",
            "music-pair",
            "--out",
            p.to_str().unwrap(),
            "--n",
            "300",
        ]))
        .unwrap();
        assert!(dir.join("pair.studio.txt").exists());
        run(&raw(&[
            "--kind",
            "adversarial-trio",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(dir.join("pair.a.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_labeled_file_loads_back() {
        let dir = crate::test_dir("generate-generated_labeled_file_loads_back");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("cbf.tsv");
        run(&raw(&[
            "--kind",
            "cbf",
            "--out",
            p.to_str().unwrap(),
            "--n",
            "64",
            "--count",
            "2",
        ]))
        .unwrap();
        let back = tsdtw_datasets::ucr_format::load_ucr_file(&p).unwrap();
        assert_eq!(back.len(), 6);
        assert_eq!(back.series_len(), 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        assert!(run(&raw(&["--kind", "nope", "--out", "/tmp/x"])).is_err());
    }

    #[test]
    fn split_on_plain_kind_is_an_error() {
        let r = run(&raw(&[
            "--kind",
            "random-walk",
            "--out",
            "/tmp/x",
            "--split",
            "3",
        ]));
        assert!(r.is_err());
        assert!(r.unwrap_err().to_string().contains("labeled generators"));
    }

    #[test]
    fn split_writes_a_coherent_train_test_pair() {
        use tsdtw_datasets::ucr_format::load_ucr_file;
        let dir = crate::test_dir("generate-split_writes_a_coherent_train_test_pair");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("tg.tsv");
        let msg = run(&raw(&[
            "--kind",
            "timing-gestures",
            "--out",
            p.to_str().unwrap(),
            "--n",
            "80",
            "--classes",
            "4",
            "--count",
            "6",
            "--split",
            "3",
        ]))
        .unwrap();
        assert!(msg.contains("one coherent generation"), "{msg}");
        let train = load_ucr_file(&dir.join("tg_TRAIN.tsv")).unwrap();
        let test = load_ucr_file(&dir.join("tg_TEST.tsv")).unwrap();
        assert_eq!(train.n_classes(), 4);
        assert_eq!(test.n_classes(), 4);
        assert_eq!(train.len() + test.len(), 24);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
