// Command fsck verifies and repairs store directories (observation stores
// and web-execution bundles) — the recovery tool for crawls that died
// mid-run. A store of an earlier release (format v1 or v2) is refused in
// every mode and left untouched; the refusal names the commit whose fsck
// converts it (README, "Archives of earlier releases").
//
// Three modes:
//
//	fsck -store crawl.store           # verify: full checksum replay, counts
//	                                  # cross-checked against the manifest;
//	                                  # a bundle's stream order and bundle.json
//	fsck -store crawl.store -stats    # inspect: report manifest and the
//	                                  # study it records, checkpoint,
//	                                  # per-segment state and (bundles) stream
//	                                  # order, judge nothing
//	fsck -store crawl.store -repair   # salvage: restore the store to its
//	                                  # last checkpoint, or to each segment's
//	                                  # longest valid record prefix
//
// Verify exits non-zero on any integrity failure, so it drops into shell
// pipelines and CI. Repair never loses committed weeks: a checkpointed
// store that cannot be restored to its committed state is an error, not a
// shorter archive.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"clientres/internal/store"
	"clientres/internal/wexbundle"
)

func main() {
	dir := flag.String("store", "", "store directory to check")
	repair := flag.Bool("repair", false, "salvage the store in place instead of verifying")
	stats := flag.Bool("stats", false, "inspect and report state without verifying or repairing")
	flag.Parse()
	if *dir == "" {
		log.Fatal("fsck: -store is required")
	}

	switch {
	case *stats:
		in, err := store.Inspect(*dir)
		if err != nil {
			log.Fatalf("fsck: %v", err)
		}
		printInspection(in)
		if in.HasManifest && in.Manifest.Version == store.FormatBundle {
			printStreamOrder(*dir)
		}
	case *repair:
		res, err := store.Salvage(*dir)
		if err != nil {
			log.Fatalf("fsck: %v", err)
		}
		switch {
		case res.Intact:
			fmt.Printf("%s: intact (%d segments, %d records) — nothing to repair\n",
				*dir, res.Segments, res.Total)
		case res.FromCheckpoint:
			fmt.Printf("%s: restored to last checkpoint (%d segments, %d records; %d torn segments, %d bytes amputated)\n",
				*dir, res.Segments, res.Total, res.TornSegments, res.DroppedBytes)
		default:
			fmt.Printf("%s: salvaged by prefix scan (%d segments, %d records kept; %d torn segments)\n",
				*dir, res.Segments, res.Total, res.TornSegments)
		}
	default:
		in, err := store.Verify(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
			fmt.Fprintf(os.Stderr, "fsck: %s FAILED verification — run with -repair to salvage\n", *dir)
			os.Exit(1)
		}
		salvaged := ""
		if in.Manifest.Salvaged {
			salvaged = " (salvaged archive)"
		}
		fmt.Printf("%s: ok — %s, %d segments, %d records, all checksums valid%s\n",
			*dir, formatName(in.Manifest.Version), in.Manifest.Segments, in.TotalRecords, salvaged)
		if in.Manifest.Version == store.FormatBundle {
			if err := printBundleStats(*dir); err != nil {
				log.Fatalf("fsck: %v", err)
			}
		}
	}
}

// printBundleStats renders a verified bundle's per-week recording profile:
// archived fetches, landing pages among them, raw body bytes, and
// preserved failures.
func printBundleStats(dir string) error {
	stats, err := wexbundle.Stats(dir)
	if err != nil {
		return err
	}
	fmt.Printf("  week  records    pages   body bytes  failures\n")
	var recs, pages, fails int
	var bytes int64
	for _, st := range stats {
		fmt.Printf("  %4d  %7d  %7d  %11d  %8d\n",
			st.Week, st.Records, st.Pages, st.BodyBytes, st.Failures)
		recs += st.Records
		pages += st.Pages
		bytes += st.BodyBytes
		fails += st.Failures
	}
	fmt.Printf("  all   %7d  %7d  %11d  %8d\n", recs, pages, bytes, fails)
	return nil
}

// printStreamOrder says whether a sealed bundle reads forward as a replay
// needs: bundle.json parses and no segment's weeks decrease. -stats judges
// nothing, so a failure is printed; verify mode exits non-zero on it.
func printStreamOrder(dir string) {
	stats, err := wexbundle.Stats(dir)
	if err != nil {
		fmt.Printf("  stream order: FAILED (%v)\n", err)
	} else if len(stats) > 0 {
		fmt.Printf("  stream order: ok (weeks %d–%d)\n", stats[0].Week, stats[len(stats)-1].Week)
	}
}

// formatName renders a store format / manifest version for humans.
func formatName(v int) string {
	switch v {
	case store.FormatDelta:
		return "format v3 (delta streams)"
	case store.FormatBundle:
		return "format v4 (web-execution bundle)"
	case 0:
		return "format unknown (empty)"
	default:
		return fmt.Sprintf("format v%d (unrecognized)", v)
	}
}

func printInspection(in store.Inspection) {
	fmt.Printf("store %s\n", in.Dir)
	switch {
	case in.HasManifest:
		fmt.Printf("  manifest: v%d, %d segments, %d records declared, salvaged=%v\n",
			in.Manifest.Version, in.Manifest.Segments, in.Manifest.Total, in.Manifest.Salvaged)
		if in.Manifest.Run != nil {
			fmt.Printf("  study: %+v\n", *in.Manifest.Run)
		} else {
			fmt.Printf("  study: none recorded\n")
		}
	case in.ManifestErr != "":
		fmt.Printf("  manifest: CORRUPT (%s)\n", in.ManifestErr)
	default:
		fmt.Printf("  manifest: missing (crashed or in-progress run)\n")
	}
	switch {
	case in.HasCheckpoint:
		fmt.Printf("  checkpoint: %s, %d weeks committed, %d records (run %+v)\n",
			formatName(in.Checkpoint.Format), in.Checkpoint.CommittedWeeks, in.Checkpoint.Total, in.Checkpoint.Run)
	case in.CheckpointErr != "":
		fmt.Printf("  checkpoint: CORRUPT (%s)\n", in.CheckpointErr)
	default:
		fmt.Printf("  checkpoint: none\n")
	}
	for _, seg := range in.Segments {
		state := "clean"
		if seg.Truncated {
			state = "TORN: " + seg.Err
		}
		fmt.Printf("  seg %04d: %s, %8d bytes, %3d members, %7d records, %s\n",
			seg.Index, formatName(seg.Format), seg.SizeBytes, seg.Members, seg.Records, state)
	}
	fmt.Printf("  total decodable records: %d\n", in.TotalRecords)
}
