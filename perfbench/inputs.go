package main

import (
	"fmt"
	"strings"
	"time"

	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/textlang"
)

// rng is a splitmix64 stream: every input of a run derives from --seed
// through it, so the same seed replays the same inputs on any platform.
type rng struct{ state uint64 }

func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{state: seed}
	for _, s := range stream {
		r.state = r.next() ^ (s * 0x9e3779b97f4a7c15)
	}
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// dataNodeSchema is the schema of the hadoop-xl stress document: every
// timestamp and every WARN message of a DataNode log.
const dataNodeSchema = `Struct(Stamps: Seq([ts] String), Warnings: Seq([warnmsg] String))`

var (
	logComponents = []string{"dn.storage", "dn.ipc", "dn.scanner", "dn.web"}
	logInfoMsgs   = []string{
		"Block pool registered",
		"Heartbeat sent to namenode",
		"Scanning block pool",
		"Scan finished",
		"Received block from client",
		"Deleted replica as instructed",
		"Verification succeeded for blk",
	}
	logWarnMsgs = []string{
		"Disk latency above threshold",
		"Replica count below target",
		"Checksum mismatch during scan",
		"Slow flush to disk detected",
		"Namenode connection retried",
	}
)

// genLog is a generated DataNode log in the hadoop-xl record format,
// with the byte spans of its golden ts and warnmsg instances.
type genLog struct {
	text  string
	spans map[string][][2]int
}

// generateLog writes a DataNode log of the given record count. kinds
// draws which records are WARN (about one in four, at least two so every
// field has a confirming second example); r draws the time steps,
// components and messages. Like
// hadoop-xl, every log starts at 2013-02-11 00:00:00.
func generateLog(r, kinds *rng, records int) genLog {
	var b strings.Builder
	spans := map[string][][2]int{}
	field := func(color, s string) {
		start := b.Len()
		b.WriteString(s)
		spans[color] = append(spans[color], [2]int{start, b.Len()})
	}
	b.WriteString("DataNode log excerpt (extended capture)\n")
	t := time.Date(2013, 2, 11, 0, 0, 0, 0, time.UTC)
	warns := 0
	for i := 0; i < records; i++ {
		t = t.Add(time.Duration(1+r.intn(30)) * time.Second)
		field("ts", t.Format("2006-01-02 15:04:05"))
		comp := logComponents[r.intn(len(logComponents))]
		if kinds.intn(4) == 0 || records-i <= 2-warns {
			warns++
			fmt.Fprintf(&b, " %s WARN: ", comp)
			field("warnmsg", logWarnMsgs[r.intn(len(logWarnMsgs))])
		} else {
			fmt.Fprintf(&b, " %s INFO: %s", comp, logInfoMsgs[r.intn(len(logInfoMsgs))])
		}
		b.WriteByte('\n')
	}
	return genLog{text: b.String(), spans: spans}
}

// logTask is a generated log opened as a text document, with its golden
// regions per color.
type logTask struct {
	doc    *textlang.Document
	schema *schema.Schema
	golden map[string][]region.Region
}

func openLog(l genLog, sch *schema.Schema) logTask {
	doc := textlang.NewDocument(l.text)
	golden := map[string][]region.Region{}
	for color, sp := range l.spans {
		for _, s := range sp {
			golden[color] = append(golden[color], doc.Region(s[0], s[1]))
		}
		region.Sort(golden[color])
	}
	return logTask{doc: doc, schema: sch, golden: golden}
}

// goldenValues maps each leaf color of a log to the text of its golden
// instances, in document order.
func (l genLog) goldenValues() map[string][]string {
	out := map[string][]string{}
	for color, sp := range l.spans {
		for _, s := range sp {
			out[color] = append(out[color], l.text[s[0]:s[1]])
		}
	}
	return out
}
