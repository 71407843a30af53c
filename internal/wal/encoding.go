package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"o2pc/internal/storage"
)

// Binary record layout (all integers big-endian):
//
//	uint32  payload length (bytes after this field, excluding CRC)
//	uint32  CRC-32 (IEEE) of the payload
//	payload:
//	  uint64 LSN
//	  uint8  type
//	  str    txnID
//	  image  before
//	  image  after
//	  str    aux
//
// where str is uint32 length + bytes, and image is:
//
//	uint8  flags (bit0 existed, bit1 deleted)
//	str    key
//	str    value
//	str    writer

func putString(buf []byte, s string) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	buf = append(buf, l[:]...)
	return append(buf, s...)
}

func putImage(buf []byte, img Image) []byte {
	var flags byte
	if img.Existed {
		flags |= 1
	}
	if img.Deleted {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = putString(buf, string(img.Key))
	buf = putString(buf, string(img.Value))
	return putString(buf, img.Writer)
}

// Marshal encodes rec into its binary representation including the length
// and CRC framing.
func Marshal(rec Record) []byte {
	payload := make([]byte, 0, 64)
	var lsn [8]byte
	binary.BigEndian.PutUint64(lsn[:], rec.LSN)
	payload = append(payload, lsn[:]...)
	payload = append(payload, byte(rec.Type))
	payload = putString(payload, rec.TxnID)
	payload = putImage(payload, rec.Before)
	payload = putImage(payload, rec.After)
	payload = putString(payload, rec.Aux)

	out := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remain() int { return len(d.buf) - d.off }

func (d *decoder) bytes(n int) ([]byte, error) {
	if d.remain() < n {
		return nil, fmt.Errorf("wal: truncated record: need %d bytes, have %d", n, d.remain())
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) uint64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) string() (string, error) {
	lb, err := d.bytes(4)
	if err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint32(lb))
	b, err := d.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *decoder) image() (Image, error) {
	flags, err := d.byte()
	if err != nil {
		return Image{}, err
	}
	key, err := d.string()
	if err != nil {
		return Image{}, err
	}
	val, err := d.string()
	if err != nil {
		return Image{}, err
	}
	writer, err := d.string()
	if err != nil {
		return Image{}, err
	}
	img := Image{
		Key:     storage.Key(key),
		Existed: flags&1 != 0,
		Deleted: flags&2 != 0,
		Writer:  writer,
	}
	if len(val) > 0 {
		img.Value = storage.Value(val)
	}
	return img, nil
}

// UnmarshalPayload decodes a record payload (without framing).
func UnmarshalPayload(payload []byte) (Record, error) {
	d := &decoder{buf: payload}
	var rec Record
	var err error
	if rec.LSN, err = d.uint64(); err != nil {
		return Record{}, err
	}
	t, err := d.byte()
	if err != nil {
		return Record{}, err
	}
	rec.Type = RecordType(t)
	if rec.TxnID, err = d.string(); err != nil {
		return Record{}, err
	}
	if rec.Before, err = d.image(); err != nil {
		return Record{}, err
	}
	if rec.After, err = d.image(); err != nil {
		return Record{}, err
	}
	if rec.Aux, err = d.string(); err != nil {
		return Record{}, err
	}
	if d.remain() != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes in record payload", d.remain())
	}
	return rec, nil
}

// WriteRecord marshals rec and writes it to w.
func WriteRecord(w io.Writer, rec Record) error {
	_, err := w.Write(Marshal(rec))
	return err
}

// ReadRecord reads the next framed record from r. It returns io.EOF cleanly
// at the end of the stream, and io.ErrUnexpectedEOF for a torn final record
// (which recovery treats as the end of the durable log).
func ReadRecord(r io.Reader) (Record, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Record{}, err
	}
	n := binary.BigEndian.Uint32(head[0:4])
	want := binary.BigEndian.Uint32(head[4:8])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Record{}, fmt.Errorf("wal: CRC mismatch: got %08x want %08x", got, want)
	}
	return UnmarshalPayload(payload)
}

// ReadAll decodes records from r until EOF. A torn trailing record is
// silently dropped, mirroring standard WAL recovery semantics.
func ReadAll(r io.Reader) ([]Record, error) {
	recs, _, err := readAll(r)
	return recs, err
}

// readAll is ReadAll that also returns the byte offset just past the last
// complete record: where a torn tail begins, and where appends must go.
func readAll(r io.Reader) ([]Record, int64, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	var out []Record
	var end int64
	for {
		rec, err := ReadRecord(cr)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return out, end, nil
		}
		if err != nil {
			return out, end, err
		}
		out = append(out, rec)
		end = cr.n
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
