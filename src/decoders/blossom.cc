#include "decoders/blossom.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace nisqpp {

namespace {
constexpr long kInf = std::numeric_limits<long>::max() / 4;
} // namespace

BlossomMatcher::BlossomMatcher(int n)
{
    reset(n);
}

void
BlossomMatcher::reset(int n)
{
    require(n >= 0, "BlossomMatcher: negative size");
    n_ = n;
    nx_ = n;
    cap_ = n + n / 2 + 2;

    if (cap_ > alloc_) {
        // Grow everything to the new high-water mark. The Edge matrix
        // is seeded with {u, v, 0} exactly once per growth: solve()
        // refills the real-vertex block and addBlossom() rewrites any
        // blossom-row entry before reading it, so stale values from
        // earlier instances are never observed.
        g_.assign(cap_ + 1, std::vector<Edge>(cap_ + 1));
        for (int u = 0; u <= cap_; ++u)
            for (int v = 0; v <= cap_; ++v)
                g_[u][v] = Edge{u, v, 0};
        lab_.assign(cap_ + 1, 0);
        match_.assign(cap_ + 1, 0);
        slack_.assign(cap_ + 1, 0);
        st_.assign(cap_ + 1, 0);
        pa_.assign(cap_ + 1, 0);
        s_.assign(cap_ + 1, -1);
        vis_.assign(cap_ + 1, 0);
        flowerFrom_.assign(cap_ + 1, std::vector<int>(n_ + 1, 0));
        // Blossom member lists keep their capacity across growths
        // (solve() clears each one before use).
        flower_.resize(cap_ + 1);
        visitStamp_ = 0;
        alloc_ = cap_;
    } else {
        // Arrays are big enough; only widen the flowerFrom_ rows when a
        // larger real-vertex count needs them.
        for (auto &row : flowerFrom_)
            if (static_cast<int>(row.size()) < n_ + 1)
                row.assign(n_ + 1, 0);
    }

    // User weights start absent for every instance. The outer vector
    // only grows, so rows past n_ keep their capacity for later, larger
    // instances; every reader indexes below n_.
    if (static_cast<int>(userWeight_.size()) < n_)
        userWeight_.resize(n_);
    for (int u = 0; u < n_; ++u)
        userWeight_[u].assign(n_, kAbsent);
}

void
BlossomMatcher::setWeight(int u, int v, long w)
{
    require(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
            "BlossomMatcher::setWeight: bad edge");
    require(w == kAbsent || w >= 0,
            "BlossomMatcher::setWeight: negative weight");
    userWeight_[u][v] = w;
    userWeight_[v][u] = w;
}

long
BlossomMatcher::eDelta(const Edge &e) const
{
    return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w * 2;
}

void
BlossomMatcher::updateSlack(int u, int x)
{
    if (!slack_[x] || eDelta(g_[u][x]) < eDelta(g_[slack_[x]][x]))
        slack_[x] = u;
}

void
BlossomMatcher::setSlack(int x)
{
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u)
        if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0)
            updateSlack(u, x);
}

void
BlossomMatcher::qPush(int x)
{
    if (x <= n_) {
        queue_.push_back(x);
    } else {
        for (int f : flower_[x])
            qPush(f);
    }
}

void
BlossomMatcher::setSt(int x, int b)
{
    st_[x] = b;
    if (x > n_)
        for (int f : flower_[x])
            setSt(f, b);
}

int
BlossomMatcher::getPr(int b, int xr)
{
    auto it = std::find(flower_[b].begin(), flower_[b].end(), xr);
    require(it != flower_[b].end(), "getPr: xr not in blossom");
    int pr = static_cast<int>(it - flower_[b].begin());
    if (pr % 2 == 1) {
        std::reverse(flower_[b].begin() + 1, flower_[b].end());
        return static_cast<int>(flower_[b].size()) - pr;
    }
    return pr;
}

void
BlossomMatcher::setMatch(int u, int v)
{
    match_[u] = g_[u][v].v;
    if (u > n_) {
        const Edge e = g_[u][v];
        const int xr = flowerFrom_[u][e.u];
        const int pr = getPr(u, xr);
        for (int i = 0; i < pr; ++i)
            setMatch(flower_[u][i], flower_[u][i ^ 1]);
        setMatch(xr, v);
        std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                    flower_[u].end());
    }
}

void
BlossomMatcher::augment(int u, int v)
{
    ++augments_;
    for (;;) {
        const int xnv = st_[match_[u]];
        setMatch(u, v);
        if (!xnv)
            return;
        setMatch(xnv, st_[pa_[xnv]]);
        u = st_[pa_[xnv]];
        v = xnv;
    }
}

int
BlossomMatcher::getLca(int u, int v)
{
    for (++visitStamp_; u || v; std::swap(u, v)) {
        if (u == 0)
            continue;
        if (vis_[u] == visitStamp_)
            return u;
        vis_[u] = visitStamp_;
        u = st_[match_[u]];
        if (u)
            u = st_[pa_[u]];
    }
    return 0;
}

void
BlossomMatcher::addBlossom(int u, int lca, int v)
{
    int b = n_ + 1;
    while (b <= nx_ && st_[b])
        ++b;
    if (b > nx_)
        ++nx_;
    require(nx_ <= cap_, "addBlossom: blossom capacity exceeded");

    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        y = st_[match_[x]];
        flower_[b].push_back(y);
        qPush(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        y = st_[match_[x]];
        flower_[b].push_back(y);
        qPush(y);
    }
    setSt(b, b);
    for (int x = 1; x <= nx_; ++x)
        g_[b][x].w = g_[x][b].w = 0;
    for (int x = 1; x <= n_; ++x)
        flowerFrom_[b][x] = 0;
    for (int xs : flower_[b]) {
        for (int x = 1; x <= nx_; ++x) {
            if (g_[b][x].w == 0 || eDelta(g_[xs][x]) < eDelta(g_[b][x])) {
                g_[b][x] = g_[xs][x];
                g_[x][b] = g_[x][xs];
            }
        }
        for (int x = 1; x <= n_; ++x)
            if (flowerFrom_[xs][x])
                flowerFrom_[b][x] = xs;
    }
    setSlack(b);
}

void
BlossomMatcher::expandBlossom(int b)
{
    for (int f : flower_[b])
        setSt(f, f);
    const int xr = flowerFrom_[b][g_[b][pa_[b]].u];
    const int pr = getPr(b, xr);
    for (int i = 0; i < pr; i += 2) {
        const int xs = flower_[b][i];
        const int xns = flower_[b][i + 1];
        pa_[xs] = g_[xns][xs].u;
        s_[xs] = 1;
        s_[xns] = 0;
        slack_[xs] = 0;
        setSlack(xns);
        qPush(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (std::size_t i = pr + 1; i < flower_[b].size(); ++i) {
        const int xs = flower_[b][i];
        s_[xs] = -1;
        setSlack(xs);
    }
    st_[b] = 0;
}

bool
BlossomMatcher::onFoundEdge(const Edge &e)
{
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
        pa_[v] = e.u;
        s_[v] = 1;
        const int nu = st_[match_[v]];
        slack_[v] = slack_[nu] = 0;
        s_[nu] = 0;
        qPush(nu);
    } else if (s_[v] == 0) {
        const int lca = getLca(u, v);
        if (!lca) {
            augment(u, v);
            augment(v, u);
            return true;
        }
        addBlossom(u, lca, v);
    }
    return false;
}

bool
BlossomMatcher::matchingPhase()
{
    std::fill(s_.begin() + 1, s_.begin() + nx_ + 1, -1);
    std::fill(slack_.begin() + 1, slack_.begin() + nx_ + 1, 0);
    queue_.clear();
    qHead_ = 0;
    for (int x = 1; x <= nx_; ++x) {
        if (st_[x] == x && !match_[x]) {
            pa_[x] = 0;
            s_[x] = 0;
            qPush(x);
        }
    }
    if (queue_.empty())
        return false;

    for (;;) {
        while (qHead_ < queue_.size()) {
            const int u = queue_[qHead_++];
            if (s_[st_[u]] == 1)
                continue;
            for (int v = 1; v <= n_; ++v) {
                if (g_[u][v].w > 0 && st_[u] != st_[v]) {
                    if (eDelta(g_[u][v]) == 0) {
                        if (onFoundEdge(g_[u][v]))
                            return true;
                    } else {
                        updateSlack(u, st_[v]);
                    }
                }
            }
        }
        long d = kInf;
        for (int b = n_ + 1; b <= nx_; ++b)
            if (st_[b] == b && s_[b] == 1)
                d = std::min(d, lab_[b] / 2);
        for (int x = 1; x <= nx_; ++x) {
            if (st_[x] == x && slack_[x]) {
                if (s_[x] == -1)
                    d = std::min(d, eDelta(g_[slack_[x]][x]));
                else if (s_[x] == 0)
                    d = std::min(d, eDelta(g_[slack_[x]][x]) / 2);
            }
        }
        for (int u = 1; u <= n_; ++u) {
            if (s_[st_[u]] == 0) {
                if (lab_[u] <= d)
                    return false;
                lab_[u] -= d;
            } else if (s_[st_[u]] == 1) {
                lab_[u] += d;
            }
        }
        for (int b = n_ + 1; b <= nx_; ++b) {
            if (st_[b] == b) {
                if (s_[b] == 0)
                    lab_[b] += d * 2;
                else if (s_[b] == 1)
                    lab_[b] -= d * 2;
            }
        }
        qHead_ = 0;
        queue_.clear();
        for (int x = 1; x <= nx_; ++x) {
            if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                eDelta(g_[slack_[x]][x]) == 0) {
                if (onFoundEdge(g_[slack_[x]][x]))
                    return true;
            }
        }
        for (int b = n_ + 1; b <= nx_; ++b)
            if (st_[b] == b && s_[b] == 1 && lab_[b] == 0)
                expandBlossom(b);
    }
}

long
BlossomMatcher::solve(std::vector<int> &mate)
{
    require(n_ % 2 == 0, "BlossomMatcher::solve: odd vertex count");
    mate.assign(n_, -1);
    lastAugments_ = 0;
    if (n_ == 0)
        return 0;
    const std::int64_t augmentsBefore = augments_;

    // Transform to maximum-weight matching: w' = 2 * (C - w). C must be
    // large enough that any larger-cardinality matching outweighs any
    // smaller one (C > (n/2) * max_w), so the maximum-weight matching is
    // forced to be perfect whenever one exists — also on sparse graphs.
    long max_w = 0;
    for (int u = 0; u < n_; ++u)
        for (int v = 0; v < n_; ++v)
            if (userWeight_[u][v] != kAbsent)
                max_w = std::max(max_w, userWeight_[u][v]);
    const long c = (max_w + 1) * (n_ / 2 + 1);

    nx_ = n_;
    std::fill(match_.begin(), match_.end(), 0);
    for (int u = 0; u <= cap_; ++u) {
        st_[u] = u;
        flower_[u].clear();
    }
    long w_transformed_max = 0;
    for (int u = 1; u <= n_; ++u) {
        for (int v = 1; v <= n_; ++v) {
            flowerFrom_[u][v] = (u == v ? u : 0);
            const long uw = userWeight_[u - 1][v - 1];
            const long w = (u != v && uw != kAbsent) ? 2 * (c - uw) : 0;
            g_[u][v] = Edge{u, v, w};
            w_transformed_max = std::max(w_transformed_max, w);
        }
    }
    for (int u = 1; u <= n_; ++u)
        lab_[u] = w_transformed_max;

    int n_matches = 0;
    while (matchingPhase())
        ++n_matches;
    require(n_matches * 2 == n_,
            "BlossomMatcher: no perfect matching exists");
    lastAugments_ = augments_ - augmentsBefore;

    long total = 0;
    for (int u = 1; u <= n_; ++u) {
        require(match_[u] != 0, "BlossomMatcher: unmatched vertex");
        mate[u - 1] = match_[u] - 1;
        if (match_[u] < u) {
            const long uw = userWeight_[u - 1][match_[u] - 1];
            require(uw != kAbsent, "BlossomMatcher: matched absent edge");
            total += uw;
        }
    }
    return total;
}

} // namespace nisqpp
