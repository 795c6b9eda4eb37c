//! Adversarial inputs for the token-level source model.
//!
//! The analyzer never parses Rust properly — it works on a masked,
//! tokenized approximation — so these tests pin its behavior on exactly
//! the inputs where approximations rot: raw strings full of code-shaped
//! text, `r#` raw identifiers, deeply nested generics, closures inside
//! closures, and macro invocations. A property-based section then churns
//! generated function soups through the full analysis to establish that
//! no input shape panics the pipeline.

use anubis_xtask::model::{CallKind, Workspace};
use anubis_xtask::passes::{run_analysis, AnalysisConfig};
use proptest::prelude::*;

fn ws(source: &str) -> Workspace {
    Workspace::from_sources([("crates/workload/src/lib.rs", source)])
}

#[test]
fn raw_strings_full_of_code_are_inert() {
    // The raw string contains a function declaration, an env read, and an
    // unbalanced close brace; none of it may leak into the model.
    let source = "pub fn render() -> String {\n\
                      let t = r#\"fn fake() { std::env::var(\"HOME\"); } }\"#;\n\
                      t.to_owned()\n\
                  }\n";
    let w = ws(source);
    assert_eq!(w.fns.len(), 1);
    assert_eq!(w.fns[0].name, "render");
    assert!(
        w.fns[0]
            .calls
            .iter()
            .all(|c| c.name != "var" && c.name != "fake"),
        "calls leaked from raw string: {:?}",
        w.fns[0].calls
    );
    // The whole analysis sees no env read either.
    assert!(run_analysis(&w, &AnalysisConfig::default()).is_empty());
}

#[test]
fn raw_identifiers_are_single_tokens_and_resolve_as_calls() {
    // `r#loop` and `r#fn` are ordinary identifiers; in particular `r#fn`
    // must not open a function item and `r#` must not split into `r`.
    let source = "pub fn entry() { r#loop(); }\n\
                  pub fn r#loop() { let r#fn = 1; let _ = r#fn; }\n";
    let w = ws(source);
    let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["entry", "r#loop"]);
    let call = &w.fns[0].calls[0];
    assert_eq!(call.name, "r#loop");
    assert_eq!(call.kind, CallKind::Free);
}

#[test]
fn nested_generics_do_not_derail_fn_scanning() {
    let source = "pub fn pack<T: Ord>(rows: Vec<Vec<(T, f64)>>) -> Vec<Vec<T>> {\n\
                      rows.into_iter().map(|r| r.into_iter().map(|(t, _)| t).collect::<Vec<T>>()).collect::<Vec<Vec<T>>>()\n\
                  }\n\
                  pub fn after() {}\n";
    let w = ws(source);
    let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["pack", "after"], "generics swallowed a sibling fn");
    assert_eq!(w.fns[0].params.len(), 1);
}

#[test]
fn closure_in_closure_calls_attribute_to_the_enclosing_fn() {
    let source = "pub fn outer(vs: &[Vec<f64>]) -> usize {\n\
                      vs.iter().map(|v| v.iter().filter(|x| keep(**x)).count()).sum()\n\
                  }\n\
                  fn keep(x: f64) -> bool { x > 0.0 }\n";
    let w = ws(source);
    assert_eq!(w.fns[0].name, "outer");
    assert!(
        w.fns[0]
            .calls
            .iter()
            .any(|c| c.name == "keep" && c.kind == CallKind::Free),
        "call inside nested closure lost: {:?}",
        w.fns[0].calls
    );
}

#[test]
fn nested_fn_bodies_are_not_owned_by_the_outer_fn() {
    // `inner`'s env read belongs to `inner`; `outer` reaches it only
    // through the call edge, never by token ownership.
    let source = "pub fn outer() -> bool {\n\
                      fn inner() -> bool { std::env::var(\"X\").is_ok() }\n\
                      inner()\n\
                  }\n";
    let w = ws(source);
    let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["outer", "inner"]);
    let outer_owned_text: Vec<&str> = w
        .body_tokens(&w.fns[0])
        .map(|(_, t)| t.text.as_str())
        .collect();
    assert!(
        !outer_owned_text.contains(&"var"),
        "outer owns inner's tokens"
    );
}

#[test]
fn macro_arguments_still_surface_calls() {
    // Call extraction deliberately looks inside macro invocation
    // arguments: `assert_eq!(helper(), 3)` must produce the `helper`
    // edge or reachability passes under-approximate.
    let source = "pub fn entry() { assert_eq!(helper(), 3); }\n\
                  fn helper() -> usize { 3 }\n";
    let w = ws(source);
    assert!(
        w.fns[0]
            .calls
            .iter()
            .any(|c| c.name == "helper" && c.kind == CallKind::Free),
        "call inside macro args lost: {:?}",
        w.fns[0].calls
    );
    assert!(
        w.fns[0]
            .calls
            .iter()
            .any(|c| c.name == "assert_eq" && c.kind == CallKind::Macro),
        "macro call itself lost: {:?}",
        w.fns[0].calls
    );
}

#[test]
fn byte_and_char_literals_with_braces_are_inert() {
    let source = "pub fn scan(s: &str) -> usize {\n\
                      s.chars().filter(|&c| c == '{' || c == '}').count() + (b'{' as usize)\n\
                  }\n\
                  pub fn after() {}\n";
    let w = ws(source);
    let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        ["scan", "after"],
        "brace literals broke brace matching"
    );
}

// --- property-based section ------------------------------------------------

/// Fragment pool for generated function bodies: statements exercising
/// every token shape the model special-cases. Indexed by strategy so case
/// generation stays deterministic.
const BODY_FRAGMENTS: &[&str] = &[
    "let x = vec![1, 2, 3];",
    "let s = r#\"fn not_a_fn() { } }\"#;",
    "let _ = helper(0);",
    "let _ = std::mem::take(&mut Vec::<u8>::new());",
    "let f = |a: usize| a + 1; let _ = f(2);",
    "let g = |v: &[u8]| v.iter().map(|b| b + 1).count(); let _ = g(&[1]);",
    "let r#match = 1usize; let _ = r#match;",
    "assert_eq!(1 + 1, 2);",
    "let _ = \"fn fake(){\".len();",
    "let _: Vec<Vec<f64>> = Vec::new();",
    "if b'}' == 125 { let _ = 0; }",
];

fn body_strategy() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(BODY_FRAGMENTS.to_vec()), 0..6)
}

proptest! {
    #[test]
    fn generated_sources_never_break_the_model_or_the_passes(
        bodies in prop::collection::vec(body_strategy(), 1..5),
        public_mask in prop::collection::vec(any::<bool>(), 1..5),
    ) {
        // Assemble one fn per generated body (plus the `helper` the
        // fragments call) and push the result through scanning and the
        // full analysis. The invariants: every assembled fn is found,
        // token offsets strictly increase, and nothing panics.
        let mut source = String::from("fn helper(x: usize) -> usize { x }\n");
        for (i, frags) in bodies.iter().enumerate() {
            let vis = if *public_mask.get(i).unwrap_or(&false) { "pub " } else { "" };
            source.push_str(&format!("{vis}fn gen_{i}() {{\n"));
            for frag in frags {
                source.push_str("    ");
                source.push_str(frag);
                source.push('\n');
            }
            source.push_str("}\n");
        }
        let w = ws(&source);
        prop_assert_eq!(w.fns.len(), bodies.len() + 1, "fns lost in: \n{}", source);
        for file in &w.files {
            for pair in file.tokens.windows(2) {
                prop_assert!(pair[0].offset < pair[1].offset);
            }
        }
        run_analysis(&w, &AnalysisConfig::default());
    }
}
