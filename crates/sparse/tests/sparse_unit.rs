//! Unit-level integration tests for the sparse crate: COO→CSR conversion
//! invariants, SpMV against a dense reference, and direct solves on a small
//! SPD system.

use sparse::{CooMatrix, CsrMatrix, LuFactor, SkylineCholesky};

/// A fixed 6×6 SPD matrix: 1D Laplacian with a boosted diagonal.
fn small_spd() -> CsrMatrix {
    let n = 6;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
    }
    coo.to_csr()
}

#[test]
fn coo_to_csr_sorts_and_deduplicates() {
    let mut coo = CooMatrix::new(3, 3);
    // Unsorted insertion order with duplicate entries that must be summed.
    coo.push(2, 0, 5.0).unwrap();
    coo.push(0, 2, 1.0).unwrap();
    coo.push(0, 0, 2.0).unwrap();
    coo.push(0, 0, 3.0).unwrap(); // duplicate of (0,0)
    coo.push(1, 1, 7.0).unwrap();
    coo.push(0, 2, -1.0).unwrap(); // duplicate of (0,2), sums to zero
    let csr = coo.to_csr();

    assert_eq!(csr.nrows(), 3);
    assert_eq!(csr.ncols(), 3);

    // Duplicates are accumulated.
    assert_eq!(csr.get(0, 0), 5.0);
    assert_eq!(csr.get(1, 1), 7.0);
    assert_eq!(csr.get(2, 0), 5.0);
    // The (0,2) pair sums to 0.0; whether it is stored explicitly or dropped,
    // its value must read back as zero.
    assert_eq!(csr.get(0, 2), 0.0);

    // Column indices are strictly increasing within every row.
    for r in 0..csr.nrows() {
        let (cols, _) = csr.row(r);
        for w in cols.windows(2) {
            assert!(w[0] < w[1], "row {r} has unsorted or duplicate columns: {cols:?}");
        }
    }
}

#[test]
fn coo_round_trips_through_csr_and_dense() {
    let a = small_spd();
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(i, j, v).unwrap();
        }
    }
    assert_eq!(coo.to_csr(), a);
}

#[test]
fn out_of_bounds_push_is_rejected() {
    let mut coo = CooMatrix::new(2, 2);
    assert!(coo.push(2, 0, 1.0).is_err());
    assert!(coo.push(0, 2, 1.0).is_err());
    assert!(coo.push(1, 1, 1.0).is_ok());
}

#[test]
fn spmv_matches_dense_reference() {
    let a = small_spd();
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();

    // Dense reference product.
    let mut expected = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            expected[i] += a.get(i, j) * x[j];
        }
    }

    let y = a.spmv(&x);
    for i in 0..n {
        assert!((y[i] - expected[i]).abs() < 1e-13, "row {i}: {} vs {}", y[i], expected[i]);
    }

    // And the transpose product on a symmetric matrix must agree.
    let yt = a.spmv_transpose(&x);
    for i in 0..n {
        assert!((yt[i] - expected[i]).abs() < 1e-13);
    }
}

#[test]
fn lu_solves_small_spd_system() {
    let a = small_spd();
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let b = a.spmv(&x_true);

    let lu = LuFactor::factor_csr(&a).expect("SPD matrix factors");
    let x = lu.solve(&b).expect("solve succeeds");
    for i in 0..n {
        assert!((x[i] - x_true[i]).abs() < 1e-10, "x[{i}] = {} vs {}", x[i], x_true[i]);
    }
}

#[test]
fn cholesky_agrees_with_lu_on_spd_system() {
    let a = small_spd();
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
    let lu = LuFactor::factor_csr(&a).unwrap().solve(&b).unwrap();
    let ch = SkylineCholesky::factor(&a).unwrap().solve(&b).unwrap();
    assert!(sparse::vector::relative_error(&lu, &ch) < 1e-12);
}
