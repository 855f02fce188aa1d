//! The answer oracle: outside the timed window, every request of the
//! run is regenerated from the seed and answered by one sequential
//! in-process `PqeEngine`. f64 answers must match bit for bit, exact
//! answers must compare equal.

use std::collections::BTreeMap;
use std::sync::Arc;

use intext_engine::PqeEngine;
use intext_serve::Request;

use crate::run::{Answer, Origin, Record};
use crate::workload::{setup_requests, Pair, Stream, Workload};

fn expected(engine: &mut PqeEngine, req: &Request) -> Result<Answer, String> {
    let e = |err: intext_engine::EngineError| format!("oracle engine: {err}");
    Ok(match req {
        Request::EvaluateF64 { q, tid } => {
            Answer::F64(engine.evaluate_f64(q.clone(), tid).map_err(e)?.to_bits())
        }
        Request::BatchF64 { q, tids, shards } => Answer::F64s(
            engine
                .evaluate_batch_sharded_f64(q.clone(), tids, *shards)
                .map_err(e)?
                .iter()
                .map(|p| p.to_bits())
                .collect(),
        ),
        Request::Batch { q, tids } => {
            Answer::Exacts(engine.evaluate_batch(q.clone(), tids).map_err(e)?)
        }
        other => return Err(format!("the benchmark sends no {other:?}")),
    })
}

/// Checks every record against the oracle; a wrong answer turns the
/// record's outcome into an error. Returns the number of wrong answers.
pub fn check(workload: Workload, pairs: &Arc<[Pair]>, seed: u64, records: &mut [Record]) -> usize {
    let mut engine = PqeEngine::new();
    let mut by_origin: BTreeMap<(u8, usize), Vec<&mut Record>> = BTreeMap::new();
    for r in records.iter_mut() {
        let key = match r.origin {
            Origin::Setup(s) => (0, s),
            Origin::Conn(c) => (1, c),
        };
        by_origin.entry(key).or_default().push(r);
    }
    let mut wrong = 0;
    for ((kind, n), mut recs) in by_origin {
        recs.sort_by_key(|r| r.index);
        let mut next: Box<dyn FnMut() -> Request> = if kind == 0 {
            let mut reqs = setup_requests(pairs, seed, n).into_iter();
            Box::new(move || reqs.next().expect("one record per warm pair"))
        } else {
            let mut stream = Stream::new(workload.roles()[n], n, seed, Arc::clone(pairs));
            Box::new(move || stream.next_request().request)
        };
        for (i, r) in recs.into_iter().enumerate() {
            assert_eq!(r.index, i, "records are contiguous from 0");
            let req = next();
            let Ok(got) = &r.outcome else { continue };
            match expected(&mut engine, &req) {
                Ok(want) if want == *got => {}
                Ok(_) => {
                    wrong += 1;
                    r.outcome = Err("wrong answer: differs from the sequential engine".into());
                }
                Err(e) => {
                    wrong += 1;
                    r.outcome = Err(e);
                }
            }
        }
    }
    wrong
}
