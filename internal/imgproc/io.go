package imgproc

import (
	"bufio"
	"fmt"
	"image"
	"image/png"
	"io"
	"os"
	"strings"
)

// WritePGM writes g in binary PGM (P5) format.
func WritePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return fmt.Errorf("imgproc: write pgm header: %w", err)
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return fmt.Errorf("imgproc: write pgm pixels: %w", err)
	}
	return bw.Flush()
}

// ReadPGM reads a binary PGM (P5) image.
func ReadPGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("imgproc: read pgm magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imgproc: unsupported pgm magic %q", magic)
	}
	readToken := func() (int, error) {
		// Skip whitespace and '#' comments between header tokens.
		for {
			b, err := br.ReadByte()
			if err != nil {
				return 0, err
			}
			if b == '#' {
				if _, err := br.ReadString('\n'); err != nil {
					return 0, err
				}
				continue
			}
			if strings.ContainsRune(" \t\r\n", rune(b)) {
				continue
			}
			if err := br.UnreadByte(); err != nil {
				return 0, err
			}
			break
		}
		var v int
		if _, err := fmt.Fscan(br, &v); err != nil {
			return 0, err
		}
		return v, nil
	}
	w, err := readToken()
	if err != nil {
		return nil, fmt.Errorf("imgproc: read pgm width: %w", err)
	}
	h, err := readToken()
	if err != nil {
		return nil, fmt.Errorf("imgproc: read pgm height: %w", err)
	}
	maxVal, err := readToken()
	if err != nil {
		return nil, fmt.Errorf("imgproc: read pgm maxval: %w", err)
	}
	if maxVal != 255 {
		return nil, fmt.Errorf("imgproc: unsupported pgm maxval %d", maxVal)
	}
	if w <= 0 || h <= 0 || w*h > 1<<28 {
		return nil, fmt.Errorf("imgproc: implausible pgm size %dx%d", w, h)
	}
	// Exactly one whitespace byte separates the header from the pixels.
	if _, err := br.ReadByte(); err != nil {
		return nil, fmt.Errorf("imgproc: read pgm separator: %w", err)
	}
	g := NewGray(w, h)
	if _, err := io.ReadFull(br, g.Pix); err != nil {
		return nil, fmt.Errorf("imgproc: read pgm pixels: %w", err)
	}
	return g, nil
}

// SavePGM writes g to the named file in PGM format.
func SavePGM(path string, g *Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgproc: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WritePGM(f, g); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("imgproc: close %s: %w", path, err)
	}
	return nil
}

// WritePNG writes g as a grayscale PNG.
func WritePNG(w io.Writer, g *Gray) error {
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	copy(img.Pix, g.Pix)
	if err := png.Encode(w, img); err != nil {
		return fmt.Errorf("imgproc: encode png: %w", err)
	}
	return nil
}

// SavePNG writes g to the named file as a grayscale PNG.
func SavePNG(path string, g *Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgproc: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WritePNG(f, g); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("imgproc: close %s: %w", path, err)
	}
	return nil
}
