package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The encoding/csv parsers the row reader replaced, kept as the reference the
// differential fuzzers (FuzzParseGoogleMatchesCSV, FuzzParseAzureMatchesCSV)
// hold the production parsers to: every input must give the same error
// verdict, counts and bit-identical jobs.

// refNewCSVReader configures the reference reader: variable-width rows and
// no quote pedantry.
func refNewCSVReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	cr.LazyQuotes = true
	return cr
}

// refReadGoogle is readGoogle over encoding/csv.
func refReadGoogle(r io.Reader) (rows, dropped int, jobs []Job, err error) {
	type open struct {
		arrivalSec float64
		cpu, mem   float64
	}
	cr := refNewCSVReader(r)
	pending := map[string]open{}
	var order []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("trace: google row %d: %w", rows+1, err)
		}
		rows++
		if rows == 1 && refLooksLikeHeader(rec[gTimestamp]) {
			rows--
			continue
		}
		if len(rec) < gMinCols {
			dropped++
			continue
		}
		ts, err1 := strconv.ParseFloat(rec[gTimestamp], 64)
		event, err2 := strconv.Atoi(rec[gEventType])
		if err1 != nil || err2 != nil || ts < 0 || !isFinite(ts) {
			dropped++
			continue
		}
		key := rec[gJobID] + "/" + rec[gTaskIndex]
		sec := ts / 1e6
		switch event {
		case gSubmit:
			cpu := refParseFraction(rec[gCPUReq])
			mem := refParseFraction(rec[gMemReq])
			if math.IsNaN(cpu) || math.IsNaN(mem) {
				dropped++
				continue
			}
			if _, ok := pending[key]; !ok {
				order = append(order, key)
			}
			pending[key] = open{arrivalSec: sec, cpu: cpu, mem: mem}
		case gFinish, gEvict, gFail, gKill, gLost:
			o, ok := pending[key]
			if !ok {
				dropped++
				continue
			}
			delete(pending, key)
			dur := sec - o.arrivalSec
			if dur < 0 {
				dropped++
				continue
			}
			jobs = append(jobs, Job{
				ID:          key,
				ArrivalSec:  o.arrivalSec,
				DurationSec: dur,
				CPU:         clamp01(o.cpu),
				Mem:         clamp01(o.mem),
				Cause:       causeOfEvent(event),
			})
		case gSchedule, gUpdatePending, gUpdateRunning:
		default:
			dropped++
		}
	}
	for _, key := range order {
		o, ok := pending[key]
		if !ok {
			continue
		}
		delete(pending, key)
		jobs = append(jobs, Job{
			ID:          key,
			ArrivalSec:  o.arrivalSec,
			DurationSec: -1,
			CPU:         clamp01(o.cpu),
			Mem:         clamp01(o.mem),
		})
	}
	return rows, dropped, jobs, nil
}

// refReadAzure is readAzure over encoding/csv.
func refReadAzure(r io.Reader) (rows, dropped int, jobs []Job, err error) {
	cr := refNewCSVReader(r)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("trace: azure row %d: %w", rows+1, err)
		}
		rows++
		if rows == 1 && len(rec) > aCreated && refLooksLikeHeader(rec[aCreated]) {
			rows--
			continue
		}
		if len(rec) < aMinCols {
			dropped++
			continue
		}
		created, err1 := strconv.ParseFloat(rec[aCreated], 64)
		if err1 != nil || created < 0 || !isFinite(created) {
			dropped++
			continue
		}
		dur := -1.0
		if rec[aDeleted] != "" {
			deleted, err := strconv.ParseFloat(rec[aDeleted], 64)
			if err != nil || !isFinite(deleted) {
				dropped++
				continue
			}
			if deleted >= created {
				dur = deleted - created
			}
		}
		cores := refParseBucket(rec[aCores], azureMaxCores)
		mem := refParseBucket(rec[aMem], azureMaxMemGB)
		if cores < 0 || mem < 0 {
			dropped++
			continue
		}
		cause := CauseUnknown
		if dur >= 0 {
			cause = CauseFinish
		}
		jobs = append(jobs, Job{
			ID:          strings.Clone(rec[aVMID]),
			ArrivalSec:  created,
			DurationSec: dur,
			CPU:         cores,
			Mem:         mem,
			Cause:       cause,
		})
	}
	return rows, dropped, jobs, nil
}

func refLooksLikeHeader(field string) bool {
	_, err := strconv.ParseFloat(field, 64)
	return err != nil
}

func refParseFraction(field string) float64 {
	if field == "" {
		return 0
	}
	v, err := strconv.ParseFloat(field, 64)
	if err != nil || !isFinite(v) {
		return math.NaN()
	}
	return v
}

func refParseBucket(field string, ceiling float64) float64 {
	s := strings.TrimSpace(field)
	if strings.HasPrefix(s, ">") {
		return 1
	}
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !isFinite(v) || v < 0 {
		return -1
	}
	return clamp01(v / ceiling)
}
