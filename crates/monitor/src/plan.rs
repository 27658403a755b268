//! Planning a batch apart from ingesting it.
//!
//! Part of what a monitor does with a batch depends on the packets alone:
//! HashFlow's probe words (the `d + 1` hashes of Algorithm 1, reduced to
//! table slots) and which packets the tracer samples, the rotator's
//! timestamp span and byte total. A switch computes such values in
//! pipeline stages ahead of the table accesses (§IV-D). A
//! [`BatchPlanner`] — taken from a monitor with
//! [`crate::FlowMonitor::planner`] — computes them on whatever thread
//! holds the batch, into a [`BatchPlan`], and
//! [`crate::FlowMonitor::process_planned`] consumes the plan on the
//! thread that owns the monitor's state.
//!
//! A plan is checked, never trusted: a layer that finds a plan it cannot
//! use (another layer's type, another monitor's hash functions, a row
//! count other than the batch's) plans the batch in place, exactly as
//! [`crate::FlowMonitor::process_batch`] does. Records, costs and spans do
//! not depend on where a batch was planned.

use hashflow_types::Packet;
use std::any::Any;

/// One batch's plan: what a [`BatchPlanner`] computed from the packets,
/// in a form only the layer that made it reads. Empty until planned.
/// Made to be reused: planning into a plan that already holds the
/// planner's type overwrites it in place, keeping its buffers.
#[derive(Default)]
pub struct BatchPlan(Option<Box<dyn Any + Send>>);

impl std::fmt::Debug for BatchPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("BatchPlan")
            .field(&self.0.as_ref().map(|_| ".."))
            .finish()
    }
}

impl BatchPlan {
    /// The plan as a `T`; `None` when it is empty or holds another type.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.0.as_deref()?.downcast_ref()
    }

    /// The plan as a `T` to plan into: the `T` it holds, buffers and all,
    /// or a fresh `T::default()` in place of whatever else it held.
    pub fn refill<T: Any + Send + Default>(&mut self) -> &mut T {
        if !self.0.as_deref().is_some_and(|plan| plan.is::<T>()) {
            self.0 = Some(Box::new(T::default()));
        }
        (self.0.as_deref_mut())
            .and_then(|plan| plan.downcast_mut())
            .expect("the plan holds a T")
    }
}

/// Plans batches for one monitor, from the packets alone, on any thread
/// (see the module docs). Returned by [`crate::FlowMonitor::planner`].
pub trait BatchPlanner: Send + Sync {
    /// Plans `packets` into `plan`, reusing what `plan` holds.
    fn plan(&self, packets: &[Packet], plan: &mut BatchPlan);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_keeps_a_plan_of_its_type_and_replaces_any_other() {
        let mut plan = BatchPlan::default();
        assert!(plan.get::<Vec<u64>>().is_none());
        plan.refill::<Vec<u64>>().extend([1, 2, 3]);
        let kept = plan.refill::<Vec<u64>>();
        assert_eq!(kept, &[1, 2, 3], "the same type is handed back as it was");
        kept.clear();
        assert_eq!(plan.get::<Vec<u64>>(), Some(&Vec::new()));
        assert!(plan.get::<String>().is_none(), "another type reads nothing");
        plan.refill::<String>().push('x');
        assert_eq!(plan.get::<String>().map(String::as_str), Some("x"));
        assert!(plan.get::<Vec<u64>>().is_none());
    }
}
