package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dbimadg/internal/checkpoint"
	"dbimadg/internal/imcs"
)

// FuzzLoad feeds arbitrary bytes to Load as a checkpoint file: it must return
// an error or a snapshot, never panic, and allocate no more than the file's
// size suggests whatever its length fields claim; a fresh store must accept
// or refuse each image of a snapshot with an error. The checksums stop nearly
// every mutation at the first check, so each input is loaded twice: as it is,
// and resealed — every checksum recomputed over the bytes they guard — which
// takes a mutation into the frames and the unit decoder behind them. The seeds
// are a small checkpoint of the round-trip fixture and truncated and
// bit-flipped copies of it.
func FuzzLoad(f *testing.F) {
	fx := newFixture(f, 40)
	_, meta := writeCheckpoint(f, fx, f.TempDir())
	raw, err := os.ReadFile(meta.Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, 20, headerSize, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	for _, at := range []int{9, headerSize + 2, len(raw) / 3, len(raw) - 3} {
		flipped := bytes.Clone(raw)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, file := range [][]byte{data, reseal(data)} {
			path := filepath.Join(dir, "ckpt-fuzz.imcs")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Load(path, fx.resolve)
			if (snap == nil) == (err == nil) {
				t.Fatalf("input %d: Load returned snapshot %v and error %v", i, snap != nil, err)
			}
			if err != nil {
				continue
			}
			store := imcs.NewStore()
			for _, img := range snap.Images {
				_ = store.RestoreUnit(img) // accepted or refused; a panic fails the target
			}
		}
	})
}

// headerSize is the size of a checkpoint file's header: magic, version, unit
// count, three SCNs, the creation time, and the header's CRC in its last four
// bytes.
const headerSize = 52

// reseal returns a copy of data with the header CRC, each frame's CRC and the
// trailer's file CRC recomputed, as far as the frames' lengths lie in the file.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) < headerSize+12 {
		return out
	}
	binary.LittleEndian.PutUint32(out[headerSize-4:], crc32.ChecksumIEEE(out[:headerSize-4]))
	body := out[:len(out)-12]
	for off := headerSize; off+4 <= len(body); {
		n := int(binary.LittleEndian.Uint32(body[off:]))
		if n > len(body)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(body[off+4+n:], crc32.ChecksumIEEE(body[off+4:off+4+n]))
		off += 8 + n
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}
