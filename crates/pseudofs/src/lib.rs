//! Simulated `procfs`/`sysfs`: the pseudo-file layer containers read.
//!
//! Linux exposes kernel state to user space through memory-based pseudo
//! file systems; container runtimes mount `/proc` and `/sys` (read-only)
//! into every container. The ContainerLeaks paper's observation is that
//! each pseudo-file's *handler* decides whether to consult the caller's
//! namespaces — and many don't, leaking host-global state.
//!
//! This crate reproduces that architecture faithfully:
//!
//! * A [`View`] captures *who is reading*: the host, or a container with a
//!   namespace set, cgroup membership, and a cloud provider's
//!   [`MaskPolicy`].
//! * [`PseudoFs::read`] routes a path through [`ROUTES`], the one table
//!   naming every pseudo-file, to its handler. Handlers for the
//!   channels in the paper's Table I deliberately ignore the view's
//!   namespaces (reading global kernel state), while control files like
//!   `/proc/self/status`, `/proc/net/dev`, or `/proc/sys/kernel/hostname`
//!   are properly namespaced — giving the cross-validation detector both
//!   classes to discriminate.
//! * [`PseudoFs::list`] enumerates every readable path for a view, which
//!   is what the paper's recursive-exploration tool walks.
//!
//! # Example
//!
//! ```
//! use pseudofs::{PseudoFs, View};
//! use simkernel::{Kernel, MachineConfig};
//!
//! let mut k = Kernel::new(MachineConfig::small_server(), 1);
//! k.advance_secs(2);
//! let fs = PseudoFs::new();
//! let host = View::host();
//! let uptime = fs.read(&k, &host, "/proc/uptime")?;
//! assert!(uptime.starts_with("2."));
//! # Ok::<(), pseudofs::FsError>(())
//! ```

pub mod error;
mod faultfx;
pub mod fs;
pub mod registry;
pub mod render;
pub mod view;

pub use error::FsError;
pub use fs::{PseudoFs, ReadStatus, LIST_DEPS};
pub use registry::{changed_mask_deps, route_for, Route, ROUTES};
pub use view::{glob_match, Context, MaskAction, MaskPolicy, MaskRule, View};
