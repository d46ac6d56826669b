package trace

import (
	"bytes"
	"fmt"
	"io"
)

// Azure VM-trace-style columns (the vmtable schema: one row per VM).
const (
	aVMID    = 0
	aCreated = 3 // seconds since trace start
	aDeleted = 4
	aCores   = 9  // core-count bucket: "1", "2", …, ">24"
	aMem     = 10 // memory bucket in GB: "1.75", …, ">64"
	aMinCols = 11
)

// Bucket ceilings the Azure schema tops out at; ">24" cores and ">64" GB rows
// normalize to 1.0.
const (
	azureMaxCores = 24.0
	azureMaxMemGB = 64.0
)

// ParseAzure reads VM-trace-style rows: one VM per row, arrival at the
// created timestamp, duration from created→deleted, resource shape from the
// core and memory buckets normalized against the schema's largest bucket.
// VMs with a missing or inverted deletion timestamp (still running when the
// trace was cut) get the mean observed lifetime (Trace.Defaulted counts
// them). A header row, if present, is skipped.
func ParseAzure(r io.Reader) (*Trace, error) {
	rows, dropped, jobs, err := readAzure(r)
	if err != nil {
		return nil, err
	}
	return finishTrace("azure", rows, dropped, jobs)
}

// readAzure parses VM rows into jobs in file order.
func readAzure(r io.Reader) (rows, dropped int, jobs []Job, err error) {
	rr := newRowReader(r, aMinCols)
	for {
		rec, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("trace: azure row %d: %w", rows+1, err)
		}
		rows++
		if rows == 1 && len(rec) > aCreated && looksLikeHeader(rec[aCreated]) {
			rows--
			continue
		}
		if len(rec) < aMinCols {
			dropped++
			continue
		}
		created, err1 := parseFloat(rec[aCreated])
		if err1 != nil || created < 0 || !isFinite(created) {
			dropped++
			continue
		}
		dur := -1.0
		if len(rec[aDeleted]) > 0 {
			deleted, err := parseFloat(rec[aDeleted])
			if err != nil || !isFinite(deleted) {
				dropped++
				continue
			}
			if deleted >= created {
				dur = deleted - created
			}
			// An inverted pair means the VM outlived the window; keep the
			// arrival, default the duration.
		}
		cores := parseBucket(rec[aCores], azureMaxCores)
		mem := parseBucket(rec[aMem], azureMaxMemGB)
		if cores < 0 || mem < 0 {
			dropped++
			continue
		}
		cause := CauseUnknown
		if dur >= 0 {
			// The vmtable schema records only a deletion instant, no reason:
			// a deleted VM reads as a normal completion.
			cause = CauseFinish
		}
		jobs = append(jobs, Job{
			ID:          string(rec[aVMID]),
			ArrivalSec:  created,
			DurationSec: dur,
			CPU:         cores,
			Mem:         mem,
			Cause:       cause,
		})
	}
	return rows, dropped, jobs, nil
}

// parseBucket normalizes an Azure bucket column (">24"-style open top bucket,
// plain numbers otherwise) against the schema ceiling into [0, 1]; -1 flags a
// malformed cell.
func parseBucket(field []byte, ceiling float64) float64 {
	s := bytes.TrimSpace(field)
	if len(s) > 0 && s[0] == '>' {
		return 1
	}
	if len(s) == 0 {
		return 0
	}
	v, err := parseFloat(s)
	if err != nil || !isFinite(v) || v < 0 {
		return -1
	}
	return clamp01(v / ceiling)
}
