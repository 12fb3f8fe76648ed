package citefile

import (
	"bytes"
	"encoding/json"
	"sort"

	"github.com/gitcite/gitcite/internal/core"
)

// OracleEncode is the from-scratch encoder Encode replaced — every entry of
// the active domain deep-copied and marshalled on every call, no memo — kept
// as the reference the property tests hold Encode's bytes to.
func OracleEncode(f *core.Function, isDir func(path string) bool) ([]byte, error) {
	entries := f.ActiveDomain()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })

	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, pc := range entries {
		key := pc.Path
		if key != "/" && isDir != nil && isDir(pc.Path) {
			key += "/"
		}
		keyJSON, err := json.Marshal(key)
		if err != nil {
			return nil, err
		}
		valJSON, err := json.MarshalIndent(toWire(pc.Citation), "  ", "  ")
		if err != nil {
			return nil, err
		}
		buf.WriteString("  ")
		buf.Write(keyJSON)
		buf.WriteString(": ")
		buf.Write(valJSON)
		if i < len(entries)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}
