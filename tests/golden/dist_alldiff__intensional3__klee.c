/* dist_alldiff: intensional version 3 (if, logical, grouping=all) */
#include <assert.h>
#include <stdlib.h>
#include <klee/klee.h>

#define dist(a,b) abs((a)-(b))

int main(void) {
    int x0, x1, x2, y0, y1;
    /* declare variables symbolic */
    klee_make_symbolic(&x0,sizeof(x0),"x0");
    klee_make_symbolic(&x1,sizeof(x1),"x1");
    klee_make_symbolic(&x2,sizeof(x2),"x2");
    klee_make_symbolic(&y0,sizeof(y0),"y0");
    klee_make_symbolic(&y1,sizeof(y1),"y1");
    /* enforce variable domains */
    klee_assume(x0>=0 && x0<=2);
    klee_assume(x1>=0 && x1<=2);
    klee_assume(x2>=0 && x2<=2);
    klee_assume(y0>=0 && y0<=2);
    klee_assume(y1>=0 && y1<=2);
    /* CSP is satisfiable */
    if (x0!=x1 && x0!=x2 && x1!=x2 && y0==dist(x0,x1) && y1==dist(x1,x2)) assert(0);
    return 0;
}
