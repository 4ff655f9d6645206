//! AR pipeline task graphs.

use crate::error::CloudError;

/// Identifies a task within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TaskId(pub u32);

/// One task: compute plus the data it produces for its dependents.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Name for reports.
    pub name: String,
    /// Compute demand, giga-operations.
    pub gigaops: f64,
    /// Output bytes shipped to each dependent.
    pub output_bytes: u64,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Whether the task must run on the device (sensor capture, final
    /// display) — offloading planners must respect this.
    pub pinned_to_device: bool,
}

/// A DAG of tasks, validated acyclic at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// Creates a graph, validating references and acyclicity.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownTask`] for dangling deps,
    /// [`CloudError::CyclicTaskGraph`] for cycles,
    /// [`CloudError::InvalidParameter`] for an empty graph or negative
    /// compute demand.
    pub fn new(tasks: Vec<Task>) -> Result<Self, CloudError> {
        if tasks.is_empty() {
            return Err(CloudError::InvalidParameter("tasks"));
        }
        for t in &tasks {
            if t.gigaops < 0.0 || !t.gigaops.is_finite() {
                return Err(CloudError::InvalidParameter("gigaops"));
            }
            for d in &t.deps {
                if d.0 as usize >= tasks.len() {
                    return Err(CloudError::UnknownTask(d.0));
                }
            }
        }
        // Kahn's algorithm.
        let n = tasks.len();
        let mut indeg = vec![0usize; n];
        for t in &tasks {
            let _ = t;
        }
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in tasks.iter().enumerate() {
            indeg[i] = t.deps.len();
            for d in &t.deps {
                dependents[d.0 as usize].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(TaskId(i as u32));
            for &j in &dependents[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if topo.len() != n {
            return Err(CloudError::CyclicTaskGraph);
        }
        Ok(TaskGraph { tasks, topo })
    }

    /// The tasks in declaration order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty (never true for a constructed graph).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// A valid topological order.
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// A task by id.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownTask`] when out of range.
    pub fn get(&self, id: TaskId) -> Result<&Task, CloudError> {
        self.tasks
            .get(id.0 as usize)
            .ok_or(CloudError::UnknownTask(id.0))
    }

    /// The canonical mobile-AR pipeline of the paper's scenario: capture
    /// → track → detect → analyze → render, with capture and render
    /// pinned to the device. `analysis_gigaops` scales the data-hungry
    /// middle stage, `frame_bytes` the camera payload shipped if
    /// detection is offloaded.
    ///
    /// # Errors
    ///
    /// [`CloudError::InvalidParameter`] if `analysis_gigaops` is negative
    /// or non-finite (the graph shape itself is statically acyclic).
    pub fn ar_pipeline(analysis_gigaops: f64, frame_bytes: u64) -> Result<Self, CloudError> {
        TaskGraph::new(vec![
            Task {
                name: "capture".into(),
                gigaops: 0.01,
                output_bytes: frame_bytes,
                deps: vec![],
                pinned_to_device: true,
            },
            Task {
                name: "track".into(),
                gigaops: 0.2,
                output_bytes: 2_000,
                deps: vec![TaskId(0)],
                pinned_to_device: false,
            },
            Task {
                name: "detect".into(),
                gigaops: 0.4,
                output_bytes: 10_000,
                deps: vec![TaskId(0)],
                pinned_to_device: false,
            },
            Task {
                name: "analyze".into(),
                gigaops: analysis_gigaops,
                output_bytes: 5_000,
                deps: vec![TaskId(1), TaskId(2)],
                pinned_to_device: false,
            },
            Task {
                name: "render".into(),
                gigaops: 0.3,
                output_bytes: 0,
                deps: vec![TaskId(3)],
                pinned_to_device: true,
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_dangling_and_cycles() {
        let dangling = TaskGraph::new(vec![Task {
            name: "a".into(),
            gigaops: 1.0,
            output_bytes: 0,
            deps: vec![TaskId(5)],
            pinned_to_device: false,
        }]);
        assert_eq!(dangling.unwrap_err(), CloudError::UnknownTask(5));

        let cyclic = TaskGraph::new(vec![
            Task {
                name: "a".into(),
                gigaops: 1.0,
                output_bytes: 0,
                deps: vec![TaskId(1)],
                pinned_to_device: false,
            },
            Task {
                name: "b".into(),
                gigaops: 1.0,
                output_bytes: 0,
                deps: vec![TaskId(0)],
                pinned_to_device: false,
            },
        ]);
        assert_eq!(cyclic.unwrap_err(), CloudError::CyclicTaskGraph);
        assert!(TaskGraph::new(vec![]).is_err());
    }

    #[test]
    fn topo_order_respects_deps() {
        let g = TaskGraph::ar_pipeline(5.0, 500_000).unwrap();
        let pos: std::collections::HashMap<TaskId, usize> = g
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, i))
            .collect();
        for (i, t) in g.tasks().iter().enumerate() {
            for d in &t.deps {
                assert!(pos[d] < pos[&TaskId(i as u32)], "{} before {}", d.0, i);
            }
        }
    }

    #[test]
    fn ar_pipeline_shape() {
        let g = TaskGraph::ar_pipeline(10.0, 1_000_000).unwrap();
        assert_eq!(g.len(), 5);
        assert!(g.get(TaskId(0)).unwrap().pinned_to_device);
        assert!(g.get(TaskId(4)).unwrap().pinned_to_device);
        assert_eq!(g.get(TaskId(3)).unwrap().gigaops, 10.0);
        assert!(g.get(TaskId(9)).is_err());
    }
}
