//! An exported environment variable must not select another program:
//! the scalar reference paths are reached only through
//! `PlantConfig::with_scalar_reference(true)`.
//!
//! This file holds a single test so it runs in a process of its own; it
//! sets `BZ_SCALAR_REFERENCE`, which would otherwise leak into other
//! tests of the same process.

use bz_thermal::plant::PlantConfig;

#[test]
fn bz_scalar_reference_in_the_environment_keeps_the_fast_paths() {
    std::env::set_var("BZ_SCALAR_REFERENCE", "1");
    assert!(!PlantConfig::bubble_zero_lab().scalar_reference);
    assert!(
        PlantConfig::bubble_zero_lab()
            .with_scalar_reference(true)
            .scalar_reference
    );
}
