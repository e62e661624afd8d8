//! The banded backend's storage contract: the DIA strips
//! `IterationMatrix::uniformized` writes straight from a generator's
//! rows are the strips of the materialized uniformized CSR
//! (`Generator::uniformized_kernel`) — the same offsets, every data
//! bit, the same nnz — and `Auto` makes the same DIA-or-CSR choice, on
//! every family the differential oracle generates and on the paper's
//! Table-2 model.

use somrm::ctmc::generator::Generator;
use somrm::linalg::{DiaMatrix, IterationMatrix, MatrixFormat};
use somrm::models::OnOffMultiplexer;
use somrm::verify::{random_case, Family, GenConfig};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks one generator and reports whether it has a row that stores
/// no diagonal entry (an absorbing state).
fn assert_strips_match(generator: &Generator, what: &str) -> bool {
    let q = generator.uniformization_rate();
    let csr = generator.uniformized_kernel(q).unwrap();
    let want = DiaMatrix::from_csr_forced(&csr).unwrap();
    let IterationMatrix::Dia(got) =
        IterationMatrix::uniformized(generator.as_csr(), q, MatrixFormat::Dia).unwrap()
    else {
        panic!("{what}: forced DIA");
    };
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(bits(got.data()), bits(want.data()), "{what}: data");
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
    let auto = IterationMatrix::uniformized(generator.as_csr(), q, MatrixFormat::Auto).unwrap();
    assert_eq!(
        auto.is_dia(),
        DiaMatrix::from_csr(&csr).is_some(),
        "{what}: Auto's choice"
    );
    let raw = generator.as_csr();
    (0..raw.rows()).any(|i| raw.row(i).all(|(j, _)| j != i))
}

#[test]
fn generator_strips_match_the_uniformized_csr_on_every_family() {
    let cfg = GenConfig::default();
    let mut checked = vec![0usize; Family::ALL.len()];
    let mut absorbing_rows = false;
    for index in 0..160 {
        let case = random_case(11, index, &cfg);
        let model = case.build().unwrap();
        if model.generator().uniformization_rate() == 0.0 {
            continue;
        }
        let what = format!("{} case {index}", case.family);
        absorbing_rows |= assert_strips_match(model.generator(), &what);
        checked[Family::ALL.iter().position(|&f| f == case.family).unwrap()] += 1;
    }
    assert!(
        checked.iter().all(|&c| c > 0),
        "every family covered: {checked:?}"
    );
    assert!(absorbing_rows, "some generator row stores no diagonal");
}

#[test]
fn generator_strips_match_the_uniformized_csr_on_the_table2_model() {
    let model = OnOffMultiplexer::table2().model().unwrap();
    assert_eq!(model.n_states(), 200_001);
    assert_strips_match(model.generator(), "table 2");
}
