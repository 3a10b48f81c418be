//! Container image registry and launch-overhead simulation.
//!
//! Stands in for Docker Hub / biocontainers plus the local image cache.
//! The paper measured "approximately 0.6 s (36%) of the time was spent on
//! container launching and cold start overhead" for the Racon-GPU
//! container; the overhead model is calibrated to that.

use crate::error::GalaxyError;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Metadata for one published image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageMeta {
    /// Compressed image size in MB (drives pull time).
    pub size_mb: f64,
    /// Whether the image bundles a CUDA userland (GPU-capable).
    pub gpu_capable: bool,
}

/// Fixed container start overhead once the image is local (runtime setup,
/// namespace creation, entrypoint exec), seconds.
pub const COLD_START_S: f64 = 0.6;
/// Additional per-GB overlay/extraction cost on first start, seconds.
const FIRST_START_PER_GB_S: f64 = 0.25;
/// Registry pull bandwidth, MB/s.
const PULL_BANDWIDTH_MBS: f64 = 120.0;

/// A simulated registry + local image cache. Clones share the cache.
#[derive(Clone, Default)]
pub struct ImageRegistry {
    images: Arc<Mutex<HashMap<String, ImageMeta>>>,
    cache: Arc<Mutex<HashSet<String>>>,
}

impl ImageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the images the paper's evaluation uses.
    pub fn with_paper_images() -> Self {
        let reg = Self::new();
        // The Racon-GPU image the authors published to Docker Hub.
        reg.publish(
            "gulsumgudukbay/racon_dockerfile",
            ImageMeta { size_mb: 980.0, gpu_capable: true },
        );
        reg.publish("nanoporetech/bonito", ImageMeta { size_mb: 2400.0, gpu_capable: true });
        reg.publish(
            "quay.io/biocontainers/racon:1.4.3",
            ImageMeta { size_mb: 120.0, gpu_capable: false },
        );
        reg
    }

    /// Publish an image to the registry.
    pub fn publish(&self, name: impl Into<String>, meta: ImageMeta) {
        self.images.lock().insert(name.into(), meta);
    }

    /// Image metadata.
    pub fn lookup(&self, name: &str) -> Option<ImageMeta> {
        self.images.lock().get(name).cloned()
    }

    /// Whether the image is already in the local cache.
    pub fn is_cached(&self, name: &str) -> bool {
        self.cache.lock().contains(name)
    }

    /// Pull an image (`docker pull`): returns the simulated pull seconds
    /// (0 when cached) or an error for unknown images.
    pub fn pull(&self, name: &str) -> Result<f64, GalaxyError> {
        let meta = self
            .lookup(name)
            .ok_or_else(|| GalaxyError::Container(format!("image not found: {name}")))?;
        if self.is_cached(name) {
            return Ok(0.0);
        }
        self.cache.lock().insert(name.to_string());
        Ok(meta.size_mb / PULL_BANDWIDTH_MBS)
    }

    /// Launch overhead for starting a container from `name`, assuming it
    /// has been pulled: fixed runtime setup plus a first-start extraction
    /// cost. Subsequent starts pay only [`COLD_START_S`].
    pub fn start_overhead(&self, name: &str, first_start: bool) -> Result<f64, GalaxyError> {
        let meta = self
            .lookup(name)
            .ok_or_else(|| GalaxyError::Container(format!("image not found: {name}")))?;
        let mut overhead = COLD_START_S;
        if first_start {
            overhead += FIRST_START_PER_GB_S * (meta.size_mb / 1024.0);
        }
        Ok(overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_caches_and_is_idempotent() {
        let reg = ImageRegistry::with_paper_images();
        let first = reg.pull("gulsumgudukbay/racon_dockerfile").unwrap();
        assert!(first > 1.0);
        let second = reg.pull("gulsumgudukbay/racon_dockerfile").unwrap();
        assert_eq!(second, 0.0);
        assert!(reg.is_cached("gulsumgudukbay/racon_dockerfile"));
    }

    #[test]
    fn unknown_image_errors() {
        let reg = ImageRegistry::new();
        assert!(matches!(reg.pull("ghost/image"), Err(GalaxyError::Container(_))));
        assert!(reg.start_overhead("ghost/image", true).is_err());
    }

    #[test]
    fn first_start_costs_more() {
        let reg = ImageRegistry::with_paper_images();
        let first = reg.start_overhead("gulsumgudukbay/racon_dockerfile", true).unwrap();
        let later = reg.start_overhead("gulsumgudukbay/racon_dockerfile", false).unwrap();
        assert!(first > later);
        // Calibration: the paper attributes ~0.6 s to container launch +
        // cold start for the Racon image.
        assert_eq!(later, COLD_START_S);
        assert!(first > 0.6 && first < 1.0, "{first}");
    }

    #[test]
    fn gpu_capability_recorded() {
        let reg = ImageRegistry::with_paper_images();
        assert!(reg.lookup("gulsumgudukbay/racon_dockerfile").unwrap().gpu_capable);
        assert!(!reg.lookup("quay.io/biocontainers/racon:1.4.3").unwrap().gpu_capable);
    }

    #[test]
    fn clones_share_cache() {
        let a = ImageRegistry::with_paper_images();
        let b = a.clone();
        a.pull("nanoporetech/bonito").unwrap();
        assert!(b.is_cached("nanoporetech/bonito"));
    }
}
