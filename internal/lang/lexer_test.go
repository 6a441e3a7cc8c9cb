package lang

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// seedSources are the MojC texts the lexer tests and FuzzLex start from:
// the copy of the grid program in testdata and the conformance corpus.
func seedSources(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, pat := range []string{"testdata/*.mc", "../conformance/testdata/*.mc"} {
		files, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(b)
		}
	}
	if len(out) < 8 {
		t.Fatalf("found %d seed sources, want testdata/grid.mc and the seven conformance programs", len(out))
	}
	return out
}

// tokenTexts lexes src and returns the token texts, space-separated,
// without the final EOF.
func tokenTexts(t *testing.T, src string) string {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	var out []string
	for _, tk := range toks[:len(toks)-1] {
		out = append(out, tk.Text)
	}
	return strings.Join(out, " ")
}

func TestPunctuationTable(t *testing.T) {
	for _, p := range punctuations {
		toks, err := lex(p)
		if err != nil || len(toks) != 2 || toks[0].Kind != TokPunct || toks[0].Text != p {
			t.Errorf("lex(%q) = %v, %v; want the one punctuation token %q", p, toks, err, p)
		}
	}
	// Maximal munch: the longest operator at each position wins.
	for _, c := range []struct{ src, want string }{
		{"<=", "<="}, {"< =", "< ="}, {"<==", "<= ="},
		{"&&", "&&"}, {"& &", "& &"}, {"&&&", "&& &"},
		{"||", "||"}, {"| |", "| |"}, {"|||", "|| |"},
		{"===", "== ="}, {"!==", "!= ="}, {"!!=", "! !="},
		{"+=-", "+= -"}, {"-=+=", "-= +="}, {"%=%", "%= %"},
		{"^=", "^ ="}, {"&=", "& ="}, {"|=", "| ="},
		{"*=/=", "*= /="}, {">=<", ">= <"}, {"([{}]),;", "( [ { } ] ) , ;"},
		{"a+=-b", "a += - b"}, {"x<=y&&!z", "x <= y && ! z"},
	} {
		if got := tokenTexts(t, c.src); got != c.want {
			t.Errorf("lex(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	for _, bad := range []string{"@", "#", "$", "~", "?", ":", "`", "\\", "\x00"} {
		if _, err := lex(bad); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("lex(%q): err = %v, want unexpected character", bad, err)
		}
	}
}

// prefixPunct is the matcher the lexer used before punct: the first table
// entry that prefixes the remaining source, found by converting that
// remainder to a string. It is quadratic, which is why it was replaced;
// here it is the reference punct is compared against.
func prefixPunct(src []rune, pos int) string {
	rest := string(src[pos:])
	for _, p := range punctuations {
		if strings.HasPrefix(rest, p) {
			return p
		}
	}
	return ""
}

func TestPunctMatchesPrefixMatcher(t *testing.T) {
	for name, src := range seedSources(t) {
		lx := newLexer(src)
		for lx.pos = 0; lx.pos < len(lx.src); lx.pos++ {
			if got, want := lx.punct(), prefixPunct(lx.src, lx.pos); got != want {
				t.Fatalf("%s: at rune %d (%q): punct %q, prefix matcher %q", name, lx.pos, lx.src[lx.pos], got, want)
			}
		}
	}
}

func TestCharLiteralErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { int c = '\`, // escape runs into end of input
		`'`, `'a`, `'\n`, `'ab'`,
	} {
		_, err := lex(src)
		if err == nil || !strings.Contains(err.Error(), "unterminated char literal") {
			t.Errorf("lex(%q): err = %v, want unterminated char literal", src, err)
		}
	}
	if _, err := lex(`'\q'`); err == nil || !strings.Contains(err.Error(), "unknown escape") {
		t.Errorf(`lex('\q'): err = %v, want unknown escape`, err)
	}
}

// lexAllocBytes is the number of bytes one lex of src allocates.
func lexAllocBytes(t *testing.T, src string) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := lex(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLexAllocationIsLinear: eight copies of a source allocate at most ten
// times what one copy does. The prefix matcher allocated the remaining
// source once per table entry at every punctuation token, so its ratio on
// this input was above sixty.
func TestLexAllocationIsLinear(t *testing.T) {
	unit := strings.Repeat("x[i * n + j] += (a[i] - b[j]) * 3 % m; if (x <= y && !z) { f(i, j); }\n", 40)
	one := lexAllocBytes(t, unit)
	eight := lexAllocBytes(t, strings.Repeat(unit, 8))
	if eight > 10*one {
		t.Fatalf("lexing 8x the source allocated %d bytes, 1x allocated %d: ratio %.1f, want <= 10",
			eight, one, float64(eight)/float64(one))
	}
}

// FuzzLex: lexing arbitrary input terminates without panicking, and a
// successful lex ends in exactly one EOF token.
func FuzzLex(f *testing.F) {
	for _, src := range seedSources(f) {
		f.Add(src)
	}
	f.Add(`int main() { int c = '\`)
	f.Add("\"unterminated \\")
	f.Add("/* open")
	f.Add("1e+ .5 1.2.3 0x10 9223372036854775808")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("lex(%q) succeeded without a final EOF token", src)
		}
		for _, tk := range toks[:len(toks)-1] {
			if tk.Kind == TokEOF {
				t.Fatalf("lex(%q): EOF token before the end", src)
			}
		}
	})
}
