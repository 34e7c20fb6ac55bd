//! Plain-text model serialisation.
//!
//! Trained DSS models are small (tens of thousands of `f64`s), so a simple
//! self-describing text format is enough: a header line with the
//! hyper-parameters followed by one parameter value per line.  The format is
//! stable across runs and platforms, letting the examples and the benchmark
//! harness reuse models trained by `examples/train_dss.rs`.

use std::fs;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;

use crate::model::{DssConfig, DssModel};

/// Magic tag identifying the format.
const MAGIC: &str = "dss-model-v1";

/// Upper bound on `num_blocks` and `latent_dim` accepted by [`load_model`].
/// The paper's largest configuration is `k̄ = 30, d = 20`; anything orders of
/// magnitude beyond that is a corrupted or hostile header, and rejecting it
/// *before* any allocation keeps a bad file from requesting absurd amounts
/// of memory.
const MAX_DIM: usize = 4096;

/// Upper bound on the total parameter count implied by the header.  64 Mi
/// parameters is ~512 MB of `f64` — far above any real model, far below an
/// allocation that could take the process down.
const MAX_PARAMS: u128 = 1 << 26;

/// Longest line [`load_model`] reads: the header, or one `{:e}`-formatted
/// parameter (at most 24 bytes).  A longer line is not part of a model file.
const MAX_LINE: u64 = 128;

/// Number of parameters of a DSS model with `num_blocks` blocks of latent
/// dimension `d`, computed in `u128` so hostile headers cannot overflow.
/// Mirrors the four two-layer MLPs of [`crate::model::DssModel`]:
/// `Φ→`/`Φ←` (`(2d+3) → d → d`), `Ψ` (`(3d+1) → d → d`), `D` (`d → d → 1`).
fn expected_params(num_blocks: usize, d: usize) -> u128 {
    let d = d as u128;
    let mlp = |in_dim: u128, hidden: u128, out_dim: u128| {
        in_dim * hidden + hidden + hidden * out_dim + out_dim
    };
    let per_block = 2 * mlp(2 * d + 3, d, d) + mlp(3 * d + 1, d, d) + mlp(d, d, 1);
    num_blocks as u128 * per_block
}

/// Shared header validation of save and load, keeping the roundtrip
/// symmetric: anything `save_model` writes, `load_model` accepts, and a
/// config the loader would reject is refused at save time instead of
/// producing an unreadable file.
fn validate_config(num_blocks: usize, latent_dim: usize, alpha: f64) -> Result<usize, String> {
    if num_blocks == 0 || num_blocks > MAX_DIM || latent_dim == 0 || latent_dim > MAX_DIM {
        return Err(format!(
            "implausible model dimensions: num_blocks={num_blocks}, latent_dim={latent_dim} \
             (1..={MAX_DIM} each)"
        ));
    }
    let expected = expected_params(num_blocks, latent_dim);
    if expected > MAX_PARAMS {
        return Err(format!("header implies {expected} parameters (limit {MAX_PARAMS})"));
    }
    if !alpha.is_finite() || alpha <= 0.0 || alpha > 1e6 {
        return Err(format!("implausible alpha: {alpha}"));
    }
    Ok(expected as usize)
}

/// Save a model to a text file.
///
/// Refuses configurations [`load_model`] would reject (non-positive or
/// absurd `alpha`, zero or oversized dimensions), so every file this
/// function writes is guaranteed to load back.
pub fn save_model(path: &Path, model: &DssModel) -> io::Result<()> {
    let config = model.config();
    validate_config(config.num_blocks, config.latent_dim, config.alpha)
        .map_err(|what| io::Error::new(io::ErrorKind::InvalidInput, what))?;
    let params = model.flatten();
    let mut out = String::with_capacity(params.len() * 24 + 64);
    out.push_str(&format!(
        "{MAGIC} {} {} {:e}\n",
        config.num_blocks, config.latent_dim, config.alpha
    ));
    for p in &params {
        out.push_str(&format!("{:e}\n", p));
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut file = fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Read one line of at most [`MAX_LINE`] bytes into `line` (cleared
/// first); `Ok(false)` at the end of the input.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<bool> {
    line.clear();
    let n = reader.by_ref().take(MAX_LINE + 1).read_line(line)?;
    if n as u64 > MAX_LINE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line longer than {MAX_LINE} bytes"),
        ));
    }
    Ok(n > 0)
}

/// Load a model previously written by [`save_model`].
///
/// The loader is hardened against corrupted or hostile files.  It reads
/// through a buffer, never the whole file: the header and every parameter
/// line are capped at 128 bytes, and the input as a whole at what the
/// validated header allows.  Header dimensions are bounded (4096 each,
/// 2²⁶ implied weights) and `alpha` must be finite and positive **before**
/// anything is allocated, every parameter value must parse *and* be finite
/// (Rust's float parser happily accepts `NaN` and `inf`, which would
/// silently poison every inference downstream), and a file with more lines
/// than the header promises is rejected as soon as the excess is seen.
pub fn load_model(path: &Path) -> io::Result<DssModel> {
    let parse_err = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut reader = io::BufReader::new(fs::File::open(path)?);
    let mut line = String::new();
    if !read_bounded_line(&mut reader, &mut line)? {
        return Err(parse_err("empty model file".into()));
    }
    let mut fields = line.split_whitespace();
    let magic = fields.next().unwrap_or("");
    if magic != MAGIC {
        return Err(parse_err(format!("unexpected model file magic: {magic}")));
    }
    let num_blocks: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad num_blocks".into()))?;
    let latent_dim: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad latent_dim".into()))?;
    let alpha: f64 =
        fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad alpha".into()))?;
    if let Some(extra) = fields.next() {
        return Err(parse_err(format!("unexpected extra header field: {extra:?}")));
    }
    // Validate the header before allocating anything model-sized.  Zero
    // blocks is rejected too: a block-less model decodes identically to
    // zero, which as a preconditioner silently breaks down PCG (z = 0 ⇒
    // ρ = rᵀz = 0) — exactly the poisoned-model class this guard exists for.
    let expected = validate_config(num_blocks, latent_dim, alpha).map_err(parse_err)?;
    let mut body = reader.take(MAX_LINE * (expected as u64 + 1));
    let mut params = Vec::with_capacity(expected);
    while read_bounded_line(&mut body, &mut line)? {
        let value = line.trim();
        if value.is_empty() {
            continue;
        }
        if params.len() == expected {
            return Err(parse_err(format!(
                "trailing garbage after {expected} parameters: {value:?}"
            )));
        }
        let value: f64 = value.parse().map_err(|_| parse_err("bad parameter value".into()))?;
        if !value.is_finite() {
            return Err(parse_err(format!("non-finite parameter value: {value}")));
        }
        params.push(value);
    }
    if params.len() != expected {
        return Err(parse_err(format!("expected {expected} parameters, found {}", params.len())));
    }
    let mut model = DssModel::new(DssConfig { num_blocks, latent_dim, alpha }, 0);
    debug_assert_eq!(model.num_params(), expected, "expected_params must mirror the model");
    model.load_flat(&params);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LocalGraph;
    use meshgen::Point2;
    use sparse::CooMatrix;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ddm_gnn_test_{name}_{}", std::process::id()))
    }

    fn tiny_graph() -> LocalGraph {
        let n = 4;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let positions = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        LocalGraph::new(
            coo.to_csr(),
            positions,
            &[1.0, 2.0, 3.0, 4.0],
            vec![true, false, false, true],
        )
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let model = DssModel::new(DssConfig::new(3, 5), 12);
        let path = tmp_path("roundtrip.txt");
        save_model(&path, &model).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.config(), model.config());
        assert_eq!(loaded.num_params(), model.num_params());
        let graph = tiny_graph();
        let infer = |m: &DssModel| {
            let mut out = vec![0.0; graph.num_nodes()];
            let plan = m.build_plan(&graph);
            m.infer_with_plan_into(&plan, &graph.input, &mut crate::InferScratch::new(), &mut out);
            out
        };
        assert_eq!(infer(&model), infer(&loaded));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let path = tmp_path("corrupt.txt");
        std::fs::write(&path, "not-a-model 1 2 3\n").unwrap();
        assert!(load_model(&path).is_err());
        std::fs::write(&path, "dss-model-v1 2 3 1e-3\n1.0\n2.0\n").unwrap();
        assert!(load_model(&path).is_err(), "wrong parameter count must be rejected");
        std::fs::remove_file(&path).ok();
        assert!(load_model(&tmp_path("missing.txt")).is_err());
    }

    /// Write a syntactically valid model file for config (2, 3) and then
    /// corrupt one aspect of it per case.
    fn valid_file_text() -> String {
        let model = DssModel::new(DssConfig::new(2, 3), 7);
        let mut s = String::from("dss-model-v1 2 3 1e-3\n");
        for p in model.flatten() {
            s.push_str(&format!("{p:e}\n"));
        }
        s
    }

    #[test]
    fn non_finite_parameter_values_are_rejected() {
        // `"NaN".parse::<f64>()` succeeds, so a naive loader would accept
        // these and silently poison every downstream inference.
        let path = tmp_path("nonfinite.txt");
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let mut text = valid_file_text();
            // Replace the first parameter line with the non-finite value.
            let header_end = text.find('\n').unwrap() + 1;
            let first_param_end = header_end + text[header_end..].find('\n').unwrap() + 1;
            text.replace_range(header_end..first_param_end, &format!("{bad}\n"));
            std::fs::write(&path, &text).unwrap();
            let err = load_model(&path).expect_err(&format!("{bad} must be rejected"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_headers_are_rejected_before_allocation() {
        let path = tmp_path("hostile_header.txt");
        // Each of these would imply an absurd (or overflowing) allocation if
        // dimensions were trusted; the loader must reject the header alone.
        for header in [
            "dss-model-v1 99999999999 10 1e-3", // huge num_blocks
            "dss-model-v1 30 99999999999 1e-3", // huge latent_dim
            "dss-model-v1 4096 4096 1e-3",      // within MAX_DIM, too many params
            "dss-model-v1 30 0 1e-3",           // zero latent dimension
            "dss-model-v1 0 10 1e-3",           // zero blocks (all-zero inference)
            "dss-model-v1 30 10 NaN",           // non-finite alpha
            "dss-model-v1 30 10 inf",           // non-finite alpha
            "dss-model-v1 30 10 0",             // alpha must be positive
            "dss-model-v1 30 10 -1e-3",         // alpha must be positive
            "dss-model-v1 30 10 1e300",         // absurd alpha magnitude
        ] {
            std::fs::write(&path, format!("{header}\n1.0\n")).unwrap();
            let err = load_model(&path).expect_err(&format!("header {header:?} must be rejected"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_lines_are_rejected() {
        let path = tmp_path("trailing.txt");
        // Non-numeric trailing line.
        let mut text = valid_file_text();
        text.push_str("this-is-not-a-number\n");
        std::fs::write(&path, &text).unwrap();
        assert!(load_model(&path).is_err(), "non-numeric trailing line must be rejected");
        // Extra tokens on the header line are rejected, not silently dropped.
        let text = valid_file_text().replacen("1e-3", "1e-3 surprise", 1);
        std::fs::write(&path, &text).unwrap();
        assert!(load_model(&path).is_err(), "extra header fields must be rejected");
        // Numeric trailing lines (one extra parameter) must be rejected too,
        // not silently truncated.
        let mut text = valid_file_text();
        text.push_str("1.0\n");
        std::fs::write(&path, &text).unwrap();
        assert!(load_model(&path).is_err(), "extra parameter lines must be rejected");
        // The untouched file still loads.
        std::fs::write(&path, valid_file_text()).unwrap();
        assert!(load_model(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn an_endless_input_is_rejected_without_reading_it_all() {
        // `/dev/zero` never ends and has no newline: a loader that buffers
        // the whole file first reads until memory runs out.
        let err = load_model(Path::new("/dev/zero")).expect_err("not a model file");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn overlong_and_endless_blank_lines_are_rejected() {
        let path = tmp_path("overlong.txt");
        // One parameter line longer than any formatted f64.
        let mut text = valid_file_text();
        let header_end = text.find('\n').unwrap() + 1;
        text.insert_str(header_end, &" ".repeat(200));
        std::fs::write(&path, &text).unwrap();
        let err = load_model(&path).expect_err("overlong line must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Blank lines past what the header allows end the read.
        let text = format!("dss-model-v1 2 3 1e-3\n{}", "\n".repeat(1 << 20));
        std::fs::write(&path, &text).unwrap();
        let err = load_model(&path).expect_err("a file of blank lines is not a model");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_refuses_configs_the_loader_would_reject() {
        // The roundtrip stays symmetric: save_model never writes a file
        // load_model cannot read.
        let path = tmp_path("unsavable.txt");
        let bad = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 2e6 }, 1);
        let err = save_model(&path, &bad).expect_err("absurd alpha must be rejected at save time");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "no file must be written for a rejected config");
    }

    #[test]
    fn expected_params_mirrors_the_model() {
        for (kbar, d) in [(1usize, 1usize), (2, 3), (5, 10), (30, 10), (20, 20)] {
            let model = DssModel::new(DssConfig::new(kbar, d), 0);
            assert_eq!(
                expected_params(kbar, d),
                model.num_params() as u128,
                "formula mismatch for k̄={kbar}, d={d}"
            );
        }
    }
}
