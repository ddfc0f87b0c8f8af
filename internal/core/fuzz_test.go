package core

import (
	"strings"
	"testing"
)

// The task parsers sit on the daemon's wire boundary: POST /sessions bodies
// carry task files from untrusted clients, so a malformed body must return
// an error, never panic. These fuzz targets pin that contract; `go test`
// runs the seed corpus on every CI pass, `go test -fuzz` digs deeper.

func FuzzParseTwigTask(f *testing.F) {
	seeds := []string{
		"doc <lib><book><title/></book></lib>\npos 0 /0/0",
		"doc <a><b/></a>\nneg 0 /0\npos 0 /",
		"doc <a/>\nschema root a\nschema a -> epsilon",
		"# comment\n\ndoc <a/>",
		"pos 0 /0",               // example before any doc
		"doc <a/>\npos 9 /",      // doc index out of range
		"doc <a/>\npos 0 /9/9",   // path leaves the tree
		"doc <a/>\npos 0 /x",     // non-numeric path step
		"doc <unclosed",          // bad XML
		"doc <a/>\npos 0",        // missing path
		"nonsense directive",     // unknown directive
		"doc <a/>\nschema ???",   // bad schema line
		"doc <a/>\npos -1 /",     // negative doc index
		"doc <a/>\npos 0 //\x00", // control bytes
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		task, err := ParseTwigTask(src)
		if err == nil && len(task.Docs) == 0 {
			t.Errorf("nil error but no documents for %q", src)
		}
	})
}

func FuzzParseJoinTask(f *testing.F) {
	seeds := []string{
		"left L a,b\nlrow 1,2\nright R c\nrrow 3\npos 0 0",
		"left L a\nlrow 1\nright R b\nrrow 1\nsemijoin\npos 0\nneg 0",
		"lrow 1,2",                               // row before relation
		"left L\n",                               // missing attrs
		"left L a,a\n",                           // duplicate attrs
		"left L a\nlrow 1,2\n",                   // arity mismatch
		"left L a\nright R b\npos x y",           // non-numeric indexes
		"left L a\nright R b\npos 0",             // wrong arity for join example
		"left L a\nright R b\nsemijoin\npos 0 0", // wrong arity for semijoin
		"pos 0 0",                                // examples with no relations
		"left L ,\n",                             // empty attr names
		"garbage",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		task, err := ParseJoinTask(src)
		if err == nil && (task.Left == nil || task.Right == nil) {
			t.Errorf("nil error but missing relation for %q", src)
		}
	})
}

func FuzzParsePathTask(f *testing.F) {
	seeds := []string{
		"edge a r b\npos a b",
		"edge a r b\nedge b r c\nneg a c",
		"pos a b",      // example over unknown nodes
		"edge a r",     // short edge line
		"edge a r b c", // long edge line
		"pos a",        // short example
		"nonsense",
		"edge a r b\npos a ghost",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParsePathTask(src)
	})
}

func FuzzParseSchemaTask(f *testing.F) {
	seeds := []string{
		"doc <r><a/></r>",
		"doc <r/>\ndoc <r><a/><a/></r>",
		"",
		"doc",
		"doc <",
		"schema root r", // wrong directive for schema tasks
		"doc <r>" + strings.Repeat("<a/>", 50) + "</r>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		task, err := ParseSchemaTask(src)
		if err == nil && len(task.Docs) == 0 {
			t.Errorf("nil error but no documents for %q", src)
		}
	})
}
