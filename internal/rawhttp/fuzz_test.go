package rawhttp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// FuzzReadResponse holds the response parser to net/http.ReadResponse as
// the oracle. For any byte string both must agree on accepting it as a
// response, and when they accept, on the final status and the de-framed
// body bytes. The oracle skips interim 1xx responses under the same bound
// as the parser. The one licensed difference is errStrict: a response the
// parser refuses on purpose may still be one net/http reads.
//
//	go test -fuzz=FuzzReadResponse -fuzztime=10s ./internal/rawhttp
//
// The committed seed corpus (testdata/fuzz/FuzzReadResponse) covers 1xx
// chains, 204/304, chunked bodies with extensions and trailers, and
// close-delimited bodies.
func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire []byte) {
		var r Response
		status, body, err := 0, []byte(nil), error(nil)
		br := bufio.NewReaderSize(bytes.NewReader(wire), 64<<10)
		if _, err = r.ReadHead(br, false); err == nil {
			status = r.Status
			body, err = r.AppendBody(nil, 1<<20)
		}
		if errors.Is(err, errStrict) {
			return
		}
		wantStatus, wantBody, wantErr := oracleResponse(wire)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("accept/reject differs on %q:\nrawhttp:  %v\nnet/http: %v", wire, err, wantErr)
		case err != nil:
		case status != wantStatus:
			t.Fatalf("status differs on %q: rawhttp %d, net/http %d", wire, status, wantStatus)
		case !bytes.Equal(body, wantBody):
			t.Fatalf("body differs on %q:\nrawhttp:  %q\nnet/http: %q", wire, body, wantBody)
		}
	})
}

// oracleResponse reads the final response off wire with net/http.
func oracleResponse(wire []byte) (int, []byte, error) {
	br := bufio.NewReader(bytes.NewReader(wire))
	for interim := 0; ; interim++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode < 100 || resp.StatusCode > 199 {
			body, err := io.ReadAll(resp.Body)
			return resp.StatusCode, body, err
		}
		if interim+1 >= maxInterim {
			return 0, nil, fmt.Errorf("%d interim responses", maxInterim)
		}
	}
}
