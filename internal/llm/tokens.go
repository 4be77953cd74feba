package llm

import (
	"unicode"
	"unicode/utf8"
)

// CountTokens estimates the token count of text with the standard
// byte-pair-encoding rule of thumb: roughly one token per four characters,
// but never fewer tokens than whitespace-delimited words (short words cost a
// full token each). The estimate only needs to be proportional and
// deterministic — CEDAR's cost model works on relative token volumes.
func CountTokens(text string) int {
	if text == "" {
		return 0
	}
	words := countFields(text)
	byChars := (len(text) + 3) / 4
	if words > byChars {
		return words
	}
	return byChars
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// countFields returns len(strings.Fields(s)) without building the slice.
// An ASCII string is counted in one branch-free pass over its bytes; any
// other string is recounted rune by rune with unicode.IsSpace (invalid
// bytes decode as U+FFFD, which is not a space), as strings.Fields does.
func countFields(s string) int {
	n, wasSpace, high := 0, 1, uint8(0)
	for i := 0; i < len(s); i++ {
		isSpace := int(asciiSpace[s[i]])
		n += wasSpace &^ isSpace
		wasSpace = isSpace
		high |= s[i]
	}
	if high < utf8.RuneSelf {
		return n
	}
	n, inField := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inField {
			n++
		}
		inField = !space
	}
	return n
}

// CountMessageTokens estimates the prompt tokens of a chat request,
// including a small per-message framing overhead the way chat APIs bill.
func CountMessageTokens(msgs []Message) int {
	total := 0
	for _, m := range msgs {
		total += CountTokens(m.Content) + 4
	}
	return total
}
