package crawler

import "testing"

func TestSameSitePath(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"/js/app.js", true},
		{"js/app.js", true},
		{"/assets/bundle.0123456789abcdef.js", true},
		{"/js/jquery.min.js?v=1.12.4", true},
		{"/r?u=https://a/b.js", true},
		{"/a/b:c.js", true},
		{"app.js#x:y", true},
		{"./x:y.js", true},
		{"1x:y.js", true},
		{":x.js", true},
		{"", true},
		{"https://code.jquery.com/jquery-1.12.4.min.js", false},
		{"HTTP://CDN.EXAMPLE/x.js", false},
		{"//cdnjs.cloudflare.com/ajax/libs/x.js", false},
		{"data:text/javascript,alert(1)", false},
		{"javascript:void(0)", false},
		{"blob:https://a.example/1f2e", false},
		{"chrome-extension://abc/x.js", false},
		{"web+app:x", false},
		{"a.b-c+d:x", false},
	}
	for _, c := range cases {
		if got := sameSitePath(c.src); got != c.want {
			t.Errorf("sameSitePath(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sameSitePath("/r?u=https://a/b.js") }); n != 0 {
		t.Errorf("sameSitePath allocates %v times per call", n)
	}
}
