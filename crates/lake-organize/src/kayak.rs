//! KAYAK: just-in-time data preparation with DAGs of primitives and tasks
//! (§6.1.3, Table 2 rows 1–2).
//!
//! "KAYAK first defines atomic tasks such as basic profiling and dataset
//! joinability computation. Then a sequence of such atomic tasks further
//! builds up a specific operation for data preparation, referred to as a
//! *primitive* … To represent data preparation pipelines, it uses a DAG
//! with primitives as nodes and their dependencies (based on execution
//! order) as edges. To manage dependencies among tasks and execute the
//! atomic tasks of a primitive in parallel, KAYAK defines the second type
//! of DAG for task dependency … Such a DAG helps to identify which tasks
//! can be parallelized during execution."
//!
//! [`TaskGraph`] is the task-dependency DAG with both a sequential and a
//! worker-pool parallel executor (a `lake_core::sync` work queue);
//! experiment E5 measures the speedup. [`Pipeline`] is the primitive-level DAG.

use crate::DagDescription;
use lake_core::sync::{self, LeafMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An atomic task's body.
pub type TaskFn = Arc<dyn Fn() + Send + Sync>;

/// Id of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// The task-dependency DAG.
#[derive(Clone, Default)]
pub struct TaskGraph {
    names: Vec<String>,
    bodies: Vec<TaskFn>,
    /// `deps[t]` = prerequisites of `t`.
    deps: Vec<Vec<usize>>,
    /// `dependents[t]` = tasks waiting on `t`.
    dependents: Vec<Vec<usize>>,
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGraph")
            .field("tasks", &self.names)
            .field("deps", &self.deps)
            .finish()
    }
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Add an atomic task.
    pub fn add_task(&mut self, name: &str, body: impl Fn() + Send + Sync + 'static) -> TaskId {
        self.names.push(name.to_string());
        self.bodies.push(Arc::new(body));
        self.deps.push(Vec::new());
        self.dependents.push(Vec::new());
        TaskId(self.names.len() - 1)
    }

    /// Declare that `before` must complete before `after` starts
    /// (the DAG edge, directed "from the previous task to the subsequent
    /// task").
    pub fn add_dependency(&mut self, before: TaskId, after: TaskId) {
        self.deps[after.0].push(before.0);
        self.dependents[before.0].push(after.0);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Task name.
    pub fn name(&self, id: TaskId) -> &str {
        &self.names[id.0]
    }

    /// Execute every task sequentially in a valid topological order;
    /// returns the execution order. Errors if the graph has a cycle.
    pub fn run_sequential(&self) -> Result<Vec<TaskId>, lake_core::LakeError> {
        let order = self.topo_order()?;
        for &t in &order {
            (self.bodies[t])();
        }
        Ok(order.into_iter().map(TaskId).collect())
    }

    fn topo_order(&self) -> Result<Vec<usize>, lake_core::LakeError> {
        let mut indeg: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.len()).filter(|&t| indeg[t] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &d in &self.dependents[t] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() != self.len() {
            return Err(lake_core::LakeError::invalid("task graph contains a cycle"));
        }
        Ok(order)
    }

    /// Execute with `workers` threads, respecting dependencies; ready
    /// tasks are distributed over a shared work queue. Returns the
    /// completion order (which the tests validate against the DAG).
    pub fn run_parallel(&self, workers: usize) -> Result<Vec<TaskId>, lake_core::LakeError> {
        self.topo_order()?; // cycle check up front
        let n = self.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let indeg: Vec<AtomicUsize> =
            self.deps.iter().map(|d| AtomicUsize::new(d.len())).collect();
        let workers = workers.max(1);
        // `None` is the shutdown sentinel: the worker finishing the last
        // task broadcasts one per worker, so every blocked `recv` wakes.
        let (ready_tx, ready_rx) = sync::unbounded::<Option<usize>>();
        for t in 0..n {
            if self.deps[t].is_empty() {
                // `ready_rx` lives in this frame, so the channel is open.
                let _ = ready_tx.send(Some(t));
            }
        }
        let completed = Arc::new(LeafMutex::new(Vec::with_capacity(n), "organize.kayak.completed"));
        let done = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let ready_rx = ready_rx.clone();
                let ready_tx = ready_tx.clone();
                let completed = Arc::clone(&completed);
                let done = Arc::clone(&done);
                let indeg = &indeg;
                let graph = self;
                scope.spawn(move || {
                    while let Ok(Some(t)) = ready_rx.recv() {
                        (graph.bodies[t])();
                        completed.lock().push(TaskId(t));
                        for &d in &graph.dependents[t] {
                            if indeg[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                                let _ = ready_tx.send(Some(d));
                            }
                        }
                        if done.fetch_add(1, Ordering::AcqRel) + 1 == n {
                            for _ in 0..workers {
                                let _ = ready_tx.send(None);
                            }
                        }
                    }
                });
            }
            drop(ready_tx);
        });
        let order = Arc::try_unwrap(completed)
            .map(LeafMutex::into_inner)
            .unwrap_or_else(|arc| arc.lock().clone());
        Ok(order)
    }
}

/// A primitive: a named data-preparation operation built from a sequence
/// of atomic tasks within a shared [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct Primitive {
    /// Primitive name (e.g. `insert_dataset`).
    pub name: String,
    /// Its tasks, in intended order.
    pub tasks: Vec<TaskId>,
}

/// The pipeline DAG: primitives as nodes, execution-order dependencies as
/// edges (Table 2, "KAYAK (pipeline)").
#[derive(Debug, Default)]
pub struct Pipeline {
    primitives: Vec<Primitive>,
    edges: Vec<(usize, usize)>, // (before, after) by primitive index
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Append a primitive; returns its index.
    pub fn add_primitive(&mut self, p: Primitive) -> usize {
        self.primitives.push(p);
        self.primitives.len() - 1
    }

    /// Order two primitives.
    pub fn add_order(&mut self, before: usize, after: usize) {
        self.edges.push((before, after));
    }

    /// The primitives.
    pub fn primitives(&self) -> &[Primitive] {
        &self.primitives
    }

    /// Pipeline edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Lower the pipeline into one task-dependency graph: intra-primitive
    /// tasks chain sequentially; pipeline edges chain the last task of
    /// `before` to the first task of `after`. The mapping the survey's two
    /// DAG rows describe.
    pub fn lower(&self, graph: &mut TaskGraph) {
        let mut chains: HashMap<usize, (TaskId, TaskId)> = HashMap::new();
        for (pi, p) in self.primitives.iter().enumerate() {
            for pair in p.tasks.windows(2) {
                graph.add_dependency(pair[0], pair[1]);
            }
            if let (Some(&first), Some(&last)) = (p.tasks.first(), p.tasks.last()) {
                chains.insert(pi, (first, last));
            }
        }
        for &(b, a) in &self.edges {
            if let (Some(&(_, b_last)), Some(&(a_first, _))) = (chains.get(&b), chains.get(&a)) {
                graph.add_dependency(b_last, a_first);
            }
        }
    }

    /// Table 2 row for the pipeline DAG.
    pub fn describe(&self) -> DagDescription {
        DagDescription {
            system: "KAYAK (pipeline)",
            function: "Represent the primitives of a data preparation pipeline",
            node: "Primitives",
            edge: "Sequential execution order of two primitives",
            edge_direction: "From the previous primitive to the subsequent primitive",
            nodes_built: self.primitives.len(),
            edges_built: self.edges.len(),
        }
    }
}

/// Table 2 row for the task-dependency DAG.
pub fn describe_task_graph(g: &TaskGraph) -> DagDescription {
    DagDescription {
        system: "KAYAK (task dependency)",
        function: "Enforce correct execution sequence of tasks while parallelization",
        node: "Atomic tasks for data preparation operations",
        edge: "Sequential execution order of two tasks",
        edge_direction: "From the previous task to the subsequent task",
        nodes_built: g.len(),
        edges_built: g.deps.iter().map(Vec::len).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn diamond() -> (TaskGraph, [TaskId; 4], Arc<AtomicU64>) {
        // Records a bit-trace so tests can verify ordering.
        let trace = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        let mk = |g: &mut TaskGraph, name: &str, bit: u64, tr: &Arc<AtomicU64>| {
            let tr = Arc::clone(tr);
            g.add_task(name, move || {
                tr.fetch_or(1 << bit, Ordering::SeqCst);
            })
        };
        let a = mk(&mut g, "profile", 0, &trace);
        let b = mk(&mut g, "stats", 1, &trace);
        let c = mk(&mut g, "joinability", 2, &trace);
        let d = mk(&mut g, "report", 3, &trace);
        g.add_dependency(a, b);
        g.add_dependency(a, c);
        g.add_dependency(b, d);
        g.add_dependency(c, d);
        (g, [a, b, c, d], trace)
    }

    fn assert_valid_order(g: &TaskGraph, order: &[TaskId]) {
        let pos: HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, t)| (t.0, i)).collect();
        for (t, deps) in g.deps.iter().enumerate() {
            for &d in deps {
                assert!(pos[&d] < pos[&t], "dep {d} must precede {t}: {order:?}");
            }
        }
    }

    #[test]
    fn sequential_execution_respects_dependencies() {
        let (g, _, trace) = diamond();
        let order = g.run_sequential().unwrap();
        assert_eq!(order.len(), 4);
        assert_valid_order(&g, &order);
        assert_eq!(trace.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn parallel_execution_runs_everything_in_valid_order() {
        for workers in [1, 2, 4, 8] {
            let (g, _, trace) = diamond();
            let order = g.run_parallel(workers).unwrap();
            assert_eq!(order.len(), 4, "workers={workers}");
            assert_valid_order(&g, &order);
            assert_eq!(trace.load(Ordering::SeqCst), 0b1111);
        }
    }

    #[test]
    fn parallel_handles_wide_graphs() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        let sink_deps: Vec<TaskId> = (0..50)
            .map(|i| {
                let c = Arc::clone(&counter);
                g.add_task(&format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let c = Arc::clone(&counter);
        let sink = g.add_task("sink", move || {
            c.fetch_add(100, Ordering::SeqCst);
        });
        for t in sink_deps {
            g.add_dependency(t, sink);
        }
        let order = g.run_parallel(8).unwrap();
        assert_eq!(order.len(), 51);
        assert_eq!(*order.last().unwrap(), sink);
        assert_eq!(counter.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || {});
        let b = g.add_task("b", || {});
        g.add_dependency(a, b);
        g.add_dependency(b, a);
        assert!(g.run_sequential().is_err());
        assert!(g.run_parallel(2).is_err());
    }

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        assert!(g.run_parallel(4).unwrap().is_empty());
        assert!(g.is_empty());
    }

    #[test]
    fn pipeline_lowers_to_task_dependencies() {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("detect", || {});
        let t2 = g.add_task("profile", || {});
        let t3 = g.add_task("join", || {});
        let mut pipe = Pipeline::new();
        let insert = pipe.add_primitive(Primitive { name: "insert".into(), tasks: vec![t1, t2] });
        let relate = pipe.add_primitive(Primitive { name: "relate".into(), tasks: vec![t3] });
        pipe.add_order(insert, relate);
        pipe.lower(&mut g);
        // detect → profile (intra-primitive), profile → join (pipeline edge).
        let order = g.run_sequential().unwrap();
        assert_eq!(order, vec![t1, t2, t3]);
        let desc = pipe.describe();
        assert_eq!(desc.nodes_built, 2);
        assert_eq!(desc.edges_built, 1);
        let tdesc = describe_task_graph(&g);
        assert_eq!(tdesc.nodes_built, 3);
        assert_eq!(tdesc.edges_built, 2);
    }
}
