//! Golden compile output for the LDBC SNB corpus.
//!
//! Every `ALL_QUERIES` query is compiled at `OptLevel::Full` with the
//! standard corpus parameters, and everything the compiler decides is
//! rendered into one text: the Soufflé and DuckDB SQL unparses, the passes
//! applied for the Datalog and SQL targets, the analysis summary, and the
//! stratification of the optimized program. The text must match
//! `tests/golden/corpus_compile.txt` byte for byte, so a refactor of the
//! analyses or the optimizer that changes any compile output fails here.
//!
//! On a mismatch the actual text is written to the system temp dir (path
//! in the failure message); after an intended output change, review
//! the diff and copy that file over the golden one.

use std::fmt::Write as _;

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlDialect, Value};
use raqlet_ldbc::{ALL_QUERIES, SNB_PG_SCHEMA};

const GOLDEN: &str = include_str!("golden/corpus_compile.txt");

fn corpus_options() -> CompileOptions {
    CompileOptions::new(OptLevel::Full)
        .with_param("personId", Value::Int(1001))
        .with_param("otherId", Value::Int(1008))
        .with_param("maxDate", Value::Int(20_200_101))
        .with_param("firstName", Value::str("Alice"))
}

fn render_corpus() -> String {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).expect("schema compiles");
    let options = corpus_options();
    let mut out = String::new();
    for q in ALL_QUERIES {
        let compiled = raqlet.compile(q.cypher, &options).expect("corpus query compiles");
        let strata = raqlet_dlir::stratify(compiled.dlir()).expect("optimized program stratifies");
        let sql = compiled.to_sql(SqlDialect::DuckDb).expect("corpus query lowers to SQL");
        writeln!(out, "=== {} ===", q.name).unwrap();
        writeln!(out, "--- passes (datalog): {:?}", compiled.optimized.applied_passes).unwrap();
        writeln!(out, "--- passes (sql): {:?}", compiled.sql_optimized.applied_passes).unwrap();
        writeln!(out, "--- analysis").unwrap();
        for line in compiled.analysis.summary() {
            writeln!(out, "{line}").unwrap();
        }
        writeln!(out, "--- strata").unwrap();
        for (i, stratum) in strata.strata.iter().enumerate() {
            writeln!(out, "{i}: {}", stratum.join(" ")).unwrap();
        }
        writeln!(out, "--- souffle\n{}", compiled.to_souffle()).unwrap();
        writeln!(out, "--- sql (duckdb)\n{sql}").unwrap();
    }
    out
}

#[test]
fn full_compile_output_of_the_corpus_matches_the_golden_file() {
    let actual = render_corpus();
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("raqlet_corpus_compile.actual.txt");
        std::fs::write(&path, &actual).expect("write actual output");
        let first_diff = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "length differs".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "corpus compile output differs from tests/golden/corpus_compile.txt at {first_diff}; \
             actual output written to {}",
            path.display()
        );
    }
}
