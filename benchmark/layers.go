package main

import (
	"runtime"
	"time"

	"bufir/internal/codec"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// replayReps is how often a replay repeats its loop; the median
// repetition is reported.
const replayReps = 5

// codecReplay is what replaying the file and codec layers over a set
// of page ids measured.
type codecReplay struct {
	pageBlobNs       float64 // PageFile.PageBlob (locate + CRC), per page
	decodeNsPerEntry float64 // codec.DecodePage(blob, nil), per entry
	allocsPerPage    float64
	bytesPerEntry    float64 // encoded bytes per entry over the replayed pages
}

// replayCodec times the two steps of FileStore.decodePage separately
// over the page ids the traced run read from the file, in the order it
// read them.
func replayCodec(path string, ids []postings.PageID) (codecReplay, error) {
	var out codecReplay
	if len(ids) == 0 {
		return out, nil
	}
	pf, err := indexfile.OpenPageFile(path, indexfile.PageFileOptions{})
	if err != nil {
		return out, err
	}
	defer pf.Close()
	blobs := make([][]byte, len(ids))
	var blobNs, decodeNs, allocs []float64
	var entries, bytes int64
	for rep := 0; rep < replayReps; rep++ {
		t0 := time.Now()
		for i, id := range ids {
			if blobs[i], err = pf.PageBlob(int(id), nil); err != nil {
				return out, err
			}
		}
		blobNs = append(blobNs, float64(time.Since(t0))/float64(len(ids)))

		entries, bytes = 0, 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		for _, blob := range blobs {
			page, err := codec.DecodePage(blob, nil)
			if err != nil {
				return out, err
			}
			entries += int64(len(page))
			bytes += int64(len(blob))
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		decodeNs = append(decodeNs, float64(d)/float64(entries))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(ids)))
	}
	out.pageBlobNs = median(blobNs)
	out.decodeNsPerEntry = median(decodeNs)
	out.allocsPerPage = median(allocs)
	out.bytesPerEntry = float64(bytes) / float64(entries)
	return out, nil
}

// payloadBytesPerPosting is the encoded page payload of the whole file
// per posting, alignment padding left out.
func payloadBytesPerPosting(path string, postingCount int64) (float64, error) {
	pf, err := indexfile.OpenPageFile(path, indexfile.PageFileOptions{})
	if err != nil {
		return 0, err
	}
	defer pf.Close()
	return float64(pf.EncodedBytes()) / float64(postingCount), nil
}

// replayTopN times rank.TopN on an accumulator map of the given size
// over the index's document lengths, in microseconds.
func replayTopN(docLen []float64, accumulators int) float64 {
	if accumulators > len(docLen) {
		accumulators = len(docLen)
	}
	if accumulators == 0 {
		return 0
	}
	acc := make(map[postings.DocID]float64, accumulators)
	// Spread the documents over the id space and give them distinct,
	// unordered scores.
	stride := len(docLen) / accumulators
	for i := 0; i < accumulators; i++ {
		acc[postings.DocID(i*stride)] = float64((i*2654435761)%1000003) + 1
	}
	var us []float64
	for rep := 0; rep < 4*replayReps; rep++ {
		t0 := time.Now()
		top := rank.TopN(acc, docLen, topN)
		us = append(us, float64(time.Since(t0))/1e3)
		if len(top) == 0 {
			return 0
		}
	}
	return median(us)
}
