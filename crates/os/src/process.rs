//! User-space process layout with 28-bit ASLR and ELF-style libraries.
//!
//! Models the §IV-F target: a process whose code text sits at
//! `0x55XXXXXXX000` and whose shared libraries load at
//! `0x7fXXXXXXX000`, each library being a run of consecutive sections
//! with the permission sequence `r-x`, `---`, `r--`, `rw-` (exactly the
//! glibc layout of Fig. 7). Section sizes double as fingerprinting
//! signatures for library identification.

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};

/// Permission class of a user-space region, as the attack classifies it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PermClass {
    /// Readable and executable (`r-x`); timing-indistinguishable from
    /// `r--` for the attack.
    ReadExec,
    /// Readable only (`r--`).
    ReadOnly,
    /// Readable and writable (`rw-`).
    ReadWrite,
    /// `PROT_NONE` guard (`---`): a VMA exists, present bit clear.
    None,
}

impl PermClass {
    /// The PTE flags realizing this class.
    #[must_use]
    pub fn flags(self) -> PteFlags {
        match self {
            PermClass::ReadExec => PteFlags::user_rx(),
            PermClass::ReadOnly => PteFlags::user_ro(),
            PermClass::ReadWrite => PteFlags::user_rw(),
            PermClass::None => PteFlags::none_guard(),
        }
    }

    /// `/proc/PID/maps`-style permission string.
    #[must_use]
    pub const fn maps_str(self) -> &'static str {
        match self {
            PermClass::ReadExec => "r-x",
            PermClass::ReadOnly => "r--",
            PermClass::ReadWrite => "rw-",
            PermClass::None => "---",
        }
    }
}

impl fmt::Display for PermClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.maps_str())
    }
}

/// One section of a library/binary image: permission class + byte size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Section {
    /// Permission class of the section.
    pub perm: PermClass,
    /// Size in bytes (4 KiB multiple).
    pub size: u64,
}

/// A loadable image: named sequence of sections, used both to build the
/// layout and as the attack's fingerprint signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageSignature {
    /// Image name (e.g. `libc.so.6`).
    pub name: &'static str,
    /// Consecutive sections, in address order.
    pub sections: Vec<Section>,
    /// Extra writable pages the allocator appends right after the image
    /// (malloc arenas, TLS). Present in the page tables but **not** in
    /// the maps file — the Fig. 7 "detected additional pages".
    pub hidden_rw_bytes: u64,
}

impl ImageSignature {
    /// glibc, with the exact Fig. 7 section sizes:
    /// `r-x` 0x1e7000, `---` 0x200000, `r--` 0x4000, `rw-` 0x2000, plus
    /// 0x2000 of hidden allocator pages.
    #[must_use]
    pub fn libc() -> Self {
        Self {
            name: "libc.so.6",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x1e_7000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x20_0000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x4000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x2000,
                },
            ],
            hidden_rw_bytes: 0x2000,
        }
    }

    /// The dynamic loader.
    #[must_use]
    pub fn ld() -> Self {
        Self {
            name: "ld-2.27.so",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x2_7000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x1f_f000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x1000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x1000,
                },
            ],
            hidden_rw_bytes: 0x1000,
        }
    }

    /// libpthread.
    #[must_use]
    pub fn libpthread() -> Self {
        Self {
            name: "libpthread-2.27.so",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x1_9000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x1f_e000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x1000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x1000,
                },
            ],
            hidden_rw_bytes: 0x2000,
        }
    }

    /// libm.
    #[must_use]
    pub fn libm() -> Self {
        Self {
            name: "libm-2.27.so",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x18_b000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x1f_f000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x1000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x1000,
                },
            ],
            hidden_rw_bytes: 0,
        }
    }

    /// libdl.
    #[must_use]
    pub fn libdl() -> Self {
        Self {
            name: "libdl-2.27.so",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x2000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x20_0000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x1000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x1000,
                },
            ],
            hidden_rw_bytes: 0,
        }
    }

    /// The Fig. 7 application image: `r-x` 0x2000, long `---` gap,
    /// `r--` 0x1000, `rw-` 0x1000 (+1 hidden page).
    #[must_use]
    pub fn fig7_app() -> Self {
        Self {
            name: "app",
            sections: vec![
                Section {
                    perm: PermClass::ReadExec,
                    size: 0x2000,
                },
                Section {
                    perm: PermClass::None,
                    size: 0x11f_f000,
                },
                Section {
                    perm: PermClass::ReadOnly,
                    size: 0x1000,
                },
                Section {
                    perm: PermClass::ReadWrite,
                    size: 0x1000,
                },
            ],
            hidden_rw_bytes: 0x1000,
        }
    }

    /// The default library set for fingerprinting studies.
    #[must_use]
    pub fn standard_set() -> Vec<Self> {
        vec![
            Self::libc(),
            Self::ld(),
            Self::libpthread(),
            Self::libm(),
            Self::libdl(),
        ]
    }

    /// Total mapped span (sections only, no hidden pages).
    #[must_use]
    pub fn span(&self) -> u64 {
        self.sections.iter().map(|s| s.size).sum()
    }

    /// The visible section-size signature `(perm, size)` list used as the
    /// fingerprint key.
    #[must_use]
    pub fn signature(&self) -> Vec<(PermClass, u64)> {
        self.sections.iter().map(|s| (s.perm, s.size)).collect()
    }
}

/// One `/proc/PID/maps` line of ground truth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MapsEntry {
    /// Region start.
    pub start: VirtAddr,
    /// Region end (exclusive).
    pub end: VirtAddr,
    /// Permissions.
    pub perm: PermClass,
    /// Owning image name.
    pub image: &'static str,
}

impl fmt::Display for MapsEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:012x}-{:012x} {} {}",
            self.start.as_u64(),
            self.end.as_u64(),
            self.perm.maps_str(),
            self.image
        )
    }
}

/// A placed image.
#[derive(Clone, Debug)]
pub struct PlacedImage {
    /// Image identity/signature.
    pub signature: ImageSignature,
    /// Load base.
    pub base: VirtAddr,
}

/// Ground truth of the built process.
#[derive(Clone, Debug)]
pub struct ProcessTruth {
    /// The main binary.
    pub app: PlacedImage,
    /// Loaded libraries in address order.
    pub libraries: Vec<PlacedImage>,
    /// The maps-file view (hidden pages excluded!).
    pub maps: Vec<MapsEntry>,
}

impl ProcessTruth {
    /// Base of a library by name.
    #[must_use]
    pub fn library_base(&self, name: &str) -> Option<VirtAddr> {
        self.libraries
            .iter()
            .find(|l| l.signature.name == name)
            .map(|l| l.base)
    }
}

/// Builds a process address space: app at `0x55…`, libraries at `0x7f…`.
///
/// `space` may already contain other mappings (e.g. a kernel); the
/// function only adds user VMAs. Returns ground truth incl. the
/// maps-file view.
///
/// # Panics
///
/// Panics if randomized placements collide (practically impossible at
/// 28-bit entropy with a handful of images; a collision indicates a
/// seed-reuse bug in the caller).
pub fn build_process(
    space: &mut AddressSpace,
    app: &ImageSignature,
    libraries: &[ImageSignature],
    seed: u64,
) -> ProcessTruth {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5553_4552_4153_4c52); // "USERASLR"
    let mut maps = Vec::new();

    let app_base = VirtAddr::new_truncate(0x5500_0000_0000 + (rng.gen_range(0u64..1 << 28) << 12));
    place_image(space, app, app_base, &mut maps);
    let app_placed = PlacedImage {
        signature: app.clone(),
        base: app_base,
    };

    let mut placed = Vec::new();
    let mut cursor =
        VirtAddr::new_truncate(0x7f00_0000_0000 + (rng.gen_range(0u64..1 << 28) << 12));
    for lib in libraries {
        place_image(space, lib, cursor, &mut maps);
        placed.push(PlacedImage {
            signature: lib.clone(),
            base: cursor,
        });
        // Libraries load back-to-back with a small randomized gap.
        let gap = rng.gen_range(1u64..8) * 0x1000;
        cursor = cursor.wrapping_add(lib.span() + lib.hidden_rw_bytes + gap);
    }

    maps.sort_by_key(|e| e.start);
    ProcessTruth {
        app: app_placed,
        libraries: placed,
        maps,
    }
}

fn place_image(
    space: &mut AddressSpace,
    image: &ImageSignature,
    base: VirtAddr,
    maps: &mut Vec<MapsEntry>,
) {
    let mut cursor = base;
    for section in &image.sections {
        let pages = section.size / 4096;
        match section.perm {
            PermClass::None => {
                // PROT_NONE: VMA exists, pages non-present. Map then
                // drop the present bit, like mprotect(PROT_NONE).
                space
                    .map_range(cursor, pages, PageSize::Size4K, PteFlags::user_ro())
                    .expect("PROT_NONE placement");
                space
                    .protect_range(cursor, pages, PageSize::Size4K, PteFlags::none_guard())
                    .expect("PROT_NONE protect");
            }
            perm => {
                space
                    .map_range(cursor, pages, PageSize::Size4K, perm.flags())
                    .expect("section placement");
                if perm == PermClass::ReadWrite {
                    // Data sections have been written by the loader and
                    // the program: their dirty bits are set. (A clean
                    // writable page times like a kernel page under the
                    // masked store — Fig. 3 vs §IV-B.)
                    space
                        .mark_accessed_range(cursor, pages, PageSize::Size4K, true)
                        .expect("dirty rw section");
                }
            }
        }
        maps.push(MapsEntry {
            start: cursor,
            end: cursor.wrapping_add(section.size),
            perm: section.perm,
            image: image.name,
        });
        cursor = cursor.wrapping_add(section.size);
    }
    // Hidden allocator pages: in the page tables, not in the maps file.
    if image.hidden_rw_bytes > 0 {
        space
            .map_range(
                cursor,
                image.hidden_rw_bytes / 4096,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .expect("hidden allocator pages");
        space
            .mark_accessed_range(cursor, image.hidden_rw_bytes / 4096, PageSize::Size4K, true)
            .expect("dirty hidden page");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::Walker;

    fn build() -> (AddressSpace, ProcessTruth) {
        let mut space = AddressSpace::new();
        let truth = build_process(
            &mut space,
            &ImageSignature::fig7_app(),
            &ImageSignature::standard_set(),
            42,
        );
        (space, truth)
    }

    #[test]
    fn app_in_55_range_libs_in_7f_range() {
        let (_, truth) = build();
        assert_eq!(truth.app.base.as_u64() >> 40, 0x55);
        for lib in &truth.libraries {
            assert_eq!(lib.base.as_u64() >> 40, 0x7f, "{}", lib.signature.name);
        }
    }

    #[test]
    fn entropy_is_28_bits_page_aligned() {
        let mut bases = std::collections::HashSet::new();
        for seed in 0..16 {
            let mut space = AddressSpace::new();
            let t = build_process(&mut space, &ImageSignature::fig7_app(), &[], seed);
            assert_eq!(t.app.base.as_u64() & 0xfff, 0);
            assert!(t.app.base.as_u64() < 0x5500_0000_0000 + (1u64 << 40));
            bases.insert(t.app.base);
        }
        assert!(bases.len() > 12, "bases should vary across seeds");
    }

    #[test]
    fn libc_sections_have_fig7_sizes() {
        let libc = ImageSignature::libc();
        let sig = libc.signature();
        assert_eq!(sig[0], (PermClass::ReadExec, 0x1e_7000));
        assert_eq!(sig[1], (PermClass::None, 0x20_0000));
        assert_eq!(sig[2], (PermClass::ReadOnly, 0x4000));
        assert_eq!(sig[3], (PermClass::ReadWrite, 0x2000));
        assert_eq!(libc.span(), 0x1e_7000 + 0x20_0000 + 0x4000 + 0x2000);
    }

    #[test]
    fn sections_mapped_with_correct_permissions() {
        let (space, truth) = build();
        let libc_base = truth.library_base("libc.so.6").unwrap();
        let rx = space.lookup(libc_base).unwrap();
        assert!(!rx.flags.is_no_execute());
        assert!(!rx.flags.is_writable());
        // Inside the PROT_NONE gap: VMA exists but non-present.
        let gap = libc_base.wrapping_add(0x1e_7000 + 0x1000);
        assert!(space.lookup(gap).is_none());
        let walk = Walker::new().walk(&space, gap);
        assert_eq!(walk.terminal_level, avx_mmu::Level::Pt, "VMA exists");
        // r-- section.
        let ro = space
            .lookup(libc_base.wrapping_add(0x1e_7000 + 0x20_0000))
            .unwrap();
        assert!(!ro.flags.is_writable());
        // rw- section.
        let rw = space
            .lookup(libc_base.wrapping_add(0x1e_7000 + 0x20_0000 + 0x4000))
            .unwrap();
        assert!(rw.flags.is_writable());
    }

    #[test]
    fn hidden_pages_mapped_but_absent_from_maps() {
        let (space, truth) = build();
        let libc_base = truth.library_base("libc.so.6").unwrap();
        let hidden = libc_base.wrapping_add(ImageSignature::libc().span());
        assert!(space.lookup(hidden).is_some(), "hidden page is in the PTs");
        let in_maps = truth
            .maps
            .iter()
            .any(|e| hidden >= e.start && hidden < e.end);
        assert!(!in_maps, "hidden page must not appear in the maps file");
    }

    #[test]
    fn maps_sorted_and_contiguous_per_image() {
        let (_, truth) = build();
        assert!(truth.maps.windows(2).all(|w| w[0].start <= w[1].start));
        let libc_entries: Vec<_> = truth
            .maps
            .iter()
            .filter(|e| e.image == "libc.so.6")
            .collect();
        assert_eq!(libc_entries.len(), 4);
        for pair in libc_entries.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "sections are consecutive");
        }
    }

    #[test]
    fn maps_entry_display_looks_like_proc_maps() {
        let (_, truth) = build();
        let line = truth.maps[0].to_string();
        assert!(line.contains('-'));
        assert!(
            line.contains("r-x")
                || line.contains("r--")
                || line.contains("rw-")
                || line.contains("---")
        );
    }

    #[test]
    fn signatures_distinguish_standard_libraries() {
        let set = ImageSignature::standard_set();
        for (i, a) in set.iter().enumerate() {
            for b in &set[i + 1..] {
                assert_ne!(a.signature(), b.signature(), "{} vs {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut s1 = AddressSpace::new();
        let mut s2 = AddressSpace::new();
        let t1 = build_process(
            &mut s1,
            &ImageSignature::fig7_app(),
            &ImageSignature::standard_set(),
            7,
        );
        let t2 = build_process(
            &mut s2,
            &ImageSignature::fig7_app(),
            &ImageSignature::standard_set(),
            7,
        );
        assert_eq!(t1.app.base, t2.app.base);
        assert_eq!(t1.library_base("libc.so.6"), t2.library_base("libc.so.6"));
    }

    #[test]
    fn perm_class_flags_round_trip() {
        assert!(PermClass::ReadWrite.flags().is_writable());
        assert!(!PermClass::ReadOnly.flags().is_writable());
        assert!(!PermClass::ReadExec.flags().is_no_execute());
        assert!(!PermClass::None.flags().is_present());
        assert_eq!(PermClass::None.maps_str(), "---");
    }
}
