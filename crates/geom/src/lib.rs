//! Geometric substrate for constraint-driven communication synthesis.
//!
//! The DAC-2002 communication-synthesis algorithm is driven almost entirely
//! by geometry: arc lengths are distances between port positions under an
//! application-chosen norm (Manhattan on chips, Euclidean for networks), the
//! merge-pruning lemmas compare sums of such distances, and the cost of each
//! merge candidate is obtained by optimally placing merge hubs — a weighted
//! [Weber problem](weber) or its two-hub generalization. This crate
//! provides those primitives with no
//! dependencies beyond (optionally) `serde`:
//!
//! * [`Point2`] — a plain 2-D point with vector arithmetic;
//! * [`Norm`] — the Euclidean / Manhattan / Chebyshev distance functions;
//! * [`median`] — exact 1-D weighted medians;
//! * [`weber`] — single-hub Weber-point solvers (coordinate-wise weighted
//!   medians for Manhattan and Chebyshev, the smoothed-Newton kernel for the
//!   Euclidean norm) and a grid oracle for tests;
//! * [`twohub`] — the two-hub solver placing the mux/demux pair of a k-way
//!   arc merging (exact breakpoints for Manhattan and Chebyshev, the same
//!   kernel run jointly on both hubs for the Euclidean norm);
//! * [`bbox`] — axis-aligned bounding boxes.
//!
//! # Examples
//!
//! Computing a Weber point (the geometric median) of three terminals:
//!
//! ```
//! use ccs_geom::{Norm, Point2, weber::WeberProblem};
//!
//! let problem = WeberProblem::new(vec![
//!     (Point2::new(0.0, 0.0), 1.0),
//!     (Point2::new(10.0, 0.0), 1.0),
//!     (Point2::new(5.0, 8.0), 1.0),
//! ]);
//! let hub = problem.solve(Norm::Euclidean);
//! assert!(problem.cost(hub, Norm::Euclidean) <= 18.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod median;
mod newton;
pub mod norm;
pub mod point;
pub mod twohub;
pub mod weber;

pub use bbox::Aabb;
pub use norm::Norm;
pub use point::Point2;
