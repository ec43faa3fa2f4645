//! Helpers shared by the integration tests.

use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::egalitarian::EgalitarianScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::PointScheduler;

/// Every in-tree point scheduler, labelled.
pub fn all_schedulers() -> [(&'static str, Box<dyn PointScheduler>); 6] {
    [
        ("optimal", Box::new(OptimalScheduler::new())),
        ("local-search", Box::new(LocalSearchScheduler::new())),
        ("greedy", Box::new(GreedyPointScheduler::new())),
        ("egalitarian", Box::new(EgalitarianScheduler::new())),
        ("baseline", Box::new(BaselinePointScheduler::new())),
        (
            "greedy+lp-bound",
            Box::new(WithLpBound::new(GreedyPointScheduler::new())),
        ),
    ]
}
