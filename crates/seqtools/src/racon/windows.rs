//! Window construction: split the draft and assign read fragments.

use crate::mapper::Overlap;

/// One polishing window: a backbone slice of the draft plus the read
/// fragments mapped onto it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTask {
    /// Window start on the draft.
    pub start: usize,
    /// Window end (exclusive).
    pub end: usize,
    /// The draft slice (the POA backbone).
    pub backbone: String,
    /// Read fragments covering this window.
    pub fragments: Vec<String>,
}

/// Split `draft` into `window_len` windows and distribute each overlap's
/// read across the windows it spans. Read coordinates inside a window are
/// estimated by linear interpolation over the overlap (racon does the same
/// with its alignment breakpoints).
pub fn build_windows(
    draft: &str,
    reads: &[String],
    overlaps: &[Overlap],
    window_len: usize,
) -> Vec<WindowTask> {
    assert!(window_len > 0, "window length must be positive");
    let mut windows: Vec<WindowTask> = draft
        .as_bytes()
        .chunks(window_len)
        .enumerate()
        .map(|(i, chunk)| WindowTask {
            start: i * window_len,
            end: i * window_len + chunk.len(),
            backbone: String::from_utf8(chunk.to_vec()).expect("ASCII draft"),
            fragments: Vec::new(),
        })
        .collect();
    if windows.is_empty() {
        return windows;
    }

    for ovl in overlaps {
        let read = match reads.get(ovl.read_idx) {
            Some(r) => r,
            None => continue,
        };
        if ovl.target_end <= ovl.target_start || ovl.read_end <= ovl.read_start {
            continue;
        }
        let t_span = (ovl.target_end - ovl.target_start) as f64;
        let r_span = (ovl.read_end - ovl.read_start) as f64;
        let first_w = ovl.target_start / window_len;
        let last_w = (ovl.target_end - 1) / window_len;
        for w in first_w..=last_w.min(windows.len() - 1) {
            let win = &windows[w];
            let t_lo = win.start.max(ovl.target_start);
            let t_hi = win.end.min(ovl.target_end);
            if t_hi <= t_lo {
                continue;
            }
            // Linear interpolation target→read, with slack: interpolated
            // breakpoints drift by tens of bases on indel-rich long reads,
            // so fragments carry a margin that the POA fit alignment trims.
            const SLACK: usize = 25;
            let to_read = |t: usize| -> usize {
                let frac = (t - ovl.target_start) as f64 / t_span;
                (ovl.read_start as f64 + frac * r_span).round() as usize
            };
            let core_lo = to_read(t_lo).min(read.len());
            let core_hi = to_read(t_hi).min(read.len());
            // Tiny cores add noise, not signal (racon's windows likewise
            // drop fragments below a quality/length floor). The filter
            // looks at the slack-free core so margins cannot rescue a
            // 2-base sliver.
            let core_len = core_hi.saturating_sub(core_lo);
            if core_len < 20 && core_len * 2 < win.backbone.len() {
                continue;
            }
            let r_lo = core_lo.saturating_sub(SLACK);
            let r_hi = (core_hi + SLACK).min(read.len());
            if r_hi <= r_lo {
                continue;
            }
            windows[w].fragments.push(read[r_lo..r_hi].to_string());
        }
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapperConfig, TargetIndex};
    use crate::sim::genome::random_genome;

    fn ovl(read_idx: usize, rs: usize, re: usize, ts: usize, te: usize) -> Overlap {
        Overlap {
            read_idx,
            read_start: rs,
            read_end: re,
            target_start: ts,
            target_end: te,
            hits: 10,
        }
    }

    #[test]
    fn windows_tile_the_draft() {
        let draft = random_genome(1_234, 1);
        let w = build_windows(&draft, &[], &[], 500);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].backbone.len(), 500);
        assert_eq!(w[2].backbone.len(), 234);
        assert_eq!(w.iter().map(|x| x.backbone.len()).sum::<usize>(), 1_234);
        assert_eq!(w[1].start, 500);
        assert_eq!(w[1].end, 1_000);
    }

    #[test]
    fn overlap_spanning_windows_is_split() {
        let draft = random_genome(1_000, 2);
        let read = draft[300..800].to_string();
        let w = build_windows(&draft, &[read], &[ovl(0, 0, 500, 300, 800)], 500);
        // Covers [300,500) of window 0 and [500,800) of window 1, each
        // fragment padded by the ±25-base slack (clamped at read ends).
        assert_eq!(w[0].fragments.len(), 1);
        assert_eq!(w[1].fragments.len(), 1);
        assert_eq!(w[0].fragments[0].len(), 225); // 200 + trailing slack
        assert_eq!(w[1].fragments[0].len(), 325); // 300 + leading slack
                                                  // Perfect read: fragment cores match the draft slices.
        assert_eq!(&w[0].fragments[0][..200], &draft[300..500]);
        assert_eq!(&w[1].fragments[0][25..], &draft[500..800]);
    }

    #[test]
    fn tiny_fragments_dropped() {
        let draft = random_genome(1_000, 3);
        let read = draft[498..600].to_string();
        // 2 bases (+ slack) land in window 0 → dropped; the rest lands in
        // window 1 → kept.
        let w = build_windows(&draft, &[read], &[ovl(0, 0, 102, 498, 600)], 500);
        assert!(w[0].fragments.is_empty());
        assert_eq!(w[1].fragments.len(), 1);
    }

    #[test]
    fn bogus_overlaps_ignored() {
        let draft = random_genome(600, 4);
        let w = build_windows(
            &draft,
            &["ACGT".to_string()],
            &[
                ovl(5, 0, 4, 0, 4),     // read index out of range
                ovl(0, 4, 4, 100, 100), // empty spans
            ],
            500,
        );
        assert!(w.iter().all(|x| x.fragments.is_empty()));
    }

    #[test]
    fn end_to_end_with_mapper() {
        let draft = random_genome(5_000, 9);
        let reads: Vec<String> =
            (0..10).map(|i| draft[i * 400..i * 400 + 1_000].to_string()).collect();
        let index = TargetIndex::build(&draft, MapperConfig::default());
        let overlaps = index.map_all(&reads);
        assert_eq!(overlaps.len(), 10);
        let w = build_windows(&draft, &reads, &overlaps, 500);
        let covered = w.iter().filter(|x| !x.fragments.is_empty()).count();
        assert!(covered >= 8, "only {covered}/10 windows covered");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        build_windows("ACGT", &[], &[], 0);
    }
}
