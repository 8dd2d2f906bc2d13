"""Dialect snippets used across the test modules.

These are the interaction patterns the engine is designed around: sliders,
brushes, multi-select with reset, schema-copied map panning, scroll, sort and
sample reconfiguration, zooming, connected charts via templates, linear undo
through a state program, and the concurrency-policy variants.
"""

SLIDER = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE OUTPUT distData AS
 SELECT origin, COUNT()
 FROM flights JOIN LATEST slideItx ON flight_year
 GROUP BY origin;
"""

SLIDER_ASYNC = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW distDataEvent AS
 SELECT origin, COUNT()
 FROM flights JOIN LATEST slideItx ON flight_year
 GROUP BY origin;
CREATE OUTPUT distData AS
  SELECT * FROM distDataEvent e
  JOIN LATEST slideItx i ON i.timestep = e.request_timestep;
"""

SLIDER_LATEST_REQUEST = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW distDataEvent AS
 SELECT origin, COUNT()
 FROM flights JOIN LATEST slideItx ON flight_year
 GROUP BY origin;
CREATE OUTPUT distData AS
  SELECT * FROM LATEST_REQUEST distDataEvent;
"""

# one remote query behind two policies: the latest-request output above and
# its strict twin, which the planner rewrites into an async view of the same SQL
SLIDER_TWINS = SLIDER_LATEST_REQUEST + """\
CREATE OUTPUT distStrict AS
 SELECT origin, COUNT()
 FROM flights JOIN LATEST slideItx ON flight_year
 GROUP BY origin;
"""

# a strict output over two LATEST event tables: it awaits the newest
# interaction on either, and the plan dump says so
PICKED = """\
CREATE EVENT TABLE yearItx(flight_year INT);
CREATE EVENT TABLE originItx(origin TEXT);
CREATE OUTPUT picked AS SELECT delay FROM flights
 JOIN LATEST yearItx ON flight_year JOIN LATEST originItx ON origin;
"""
PICKED_REWRITTEN = "== rewritten outputs ==\npicked via pickedEvent, waits on yearItx, originItx"
SLIDER_REWRITTEN = "== rewritten outputs ==\ndistData via distDataEvent, waits on slideItx"

BRUSH = """\
CREATE EVENT TABLE brushItx (
  latMin REAL, lonMin REAL, latMax REAL, lonMax REAL
);
"""

MULTI_SELECT = """\
CREATE EVENT TABLE resetItx ();
CREATE EVENT TABLE clickItx (tweetId TEXT);
CREATE VIEW multiSelect AS
  SELECT tweetId FROM clickItx
  WHERE timestep > (SELECT timestep FROM LATEST resetItx);
"""

BRUSH_VS_MAP = BRUSH + """\
CREATE EVENT TABLE mapItx AS brushItx;
CREATE VIEW brushAfterMap AS
  SELECT * FROM LATEST brushItx AS b
    JOIN LATEST mapItx AS m ON b.timestep > m.timestep;
CREATE VIEW brushInMap AS
  SELECT * FROM LATEST brushItx AS b
    JOIN LATEST mapItx AS m ON box_in_box(b.*, m.*);
"""

SNAPPED_BRUSH = BRUSH + """\
CREATE VIEW snappedBrushOnLon AS
  SELECT ROUND(lonMin / 10) * 10 AS lonMin,
         ROUND(lonMax / 10) * 10 AS lonMax
  FROM LATEST brushItx;
"""

BRUSHED_COUNTRIES = BRUSH + """\
CREATE VIEW brushedCountries AS
  SELECT c.country FROM countries c JOIN LATEST brushItx b
  ON point_in_box(c.centroidLat, c.centroidLon, b.*);
"""

SCROLL = """\
CREATE EVENT TABLE scrollItx (minDelay INT);
CREATE VIEW scrollResult AS
  SELECT origin, delay, distance, destination
  FROM flights f JOIN LATEST scrollItx i
    ON f.delay >= i.minDelay ORDER BY f.delay LIMIT 100;
"""

RECONFIGURE_ORDER = """\
CREATE EVENT TABLE columnSelectionItx (col TEXT
  CHECK col='origin' OR col='destination' OR col='delay');
CREATE OUTPUT flightTable AS
  SELECT f.*
  FROM flights f JOIN LATEST columnSelectionItx i
  ORDER BY CASE i.col WHEN 'origin' THEN origin
    WHEN 'delay' THEN delay ELSE destination END;
"""

RECONFIGURE_SAMPLE = """\
CREATE EVENT TABLE sampleSizeItx (
  size INT CHECK size > 0
);
CREATE OUTPUT flightSample AS
  SELECT * FROM flights ORDER BY RANDOM()
  LIMIT (SELECT size FROM LATEST sampleSizeItx);
"""

PANNING = BRUSH + """\
CREATE EVENT TABLE mapItx AS brushItx;
CREATE OUTPUT curMapBounds AS SELECT * FROM LATEST mapItx;
"""

ZOOM_HISTOGRAM = """\
CREATE EVENT TABLE zoomItx(minD INT, maxD INT);
CREATE VIEW flightDelayDist AS
  SELECT
    ROUND(delay/((z.maxD-z.minD)/10))
              * ((z.maxD-z.minD)/10) delayBin,
    COUNT() count
  FROM flights JOIN LATEST zoomItx z
  GROUP BY delayBin
    HAVING delayBin < z.maxD AND delayBin > z.minD;
"""

ZOOM_SCATTER = """\
CREATE EVENT TABLE zoomScatterItx(
  minDelay INT, maxDelay INT, minDistance INT, maxDistance INT
);
CREATE VIEW delayByDistance AS
  SELECT delay, distance
  FROM flights JOIN LATEST zoomScatterItx ON
    delay < maxDelay AND delay > minDelay
    AND distance < maxDistance AND distance > minDistance
  ORDER BY origin LIMIT 100;
"""

CONNECT = BRUSH + """\
CREATE OUTPUT followerAgeDist AS
 SELECT u.age, COUNT()
 FROM tweets t JOIN follows f ON f.uId = t.uId
 JOIN users u ON f.followerId = u.id
 JOIN LATEST brushItx b ON is_within_box(t.lat, t.lon, b.*)
 GROUP BY age;
"""

TEMPLATE_FILTER = """\
CREATE EVENT TABLE zoomItx(minD INT, maxD INT);
CREATE TEMPLATE distTMP(var_tab) AS
  SELECT ROUND(delay/((z.maxD-z.minD)/10)) * ((z.maxD-z.minD)/10) delayBin,
         COUNT() count
  FROM {var_tab} JOIN LATEST zoomItx z
  GROUP BY delayBin HAVING delayBin < z.maxD AND delayBin > z.minD;
CREATE EVENT TABLE originSelItx (origin TEXT);
CREATE VIEW filteredFlights AS
  SELECT f.* FROM flights f
  JOIN LATEST originSelItx ON origin;
CREATE OUTPUT distAll AS
  USE TEMPLATE distTMP(var_tab='flights');
CREATE OUTPUT distFiltered AS
  USE TEMPLATE distTMP(var_tab='filteredFlights');
"""

UNDO = """\
CREATE EVENT TABLE clickItx(id INT);
CREATE EVENT TABLE undoItx();
CREATE TABLE allSels(id INT);
CREATE PROGRAM AFTER (clickItx, undoItx)
  BEGIN INSERT INTO allSels SELECT * FROM currSel; END;
CREATE OUTPUT currSel AS
  SELECT COALESCE(s.id, e.id) AS id
  FROM LATEST clickItx e
    LEFT OUTER JOIN curUndoSel s ON 1;
CREATE VIEW curUndoSel AS
  SELECT id FROM allSels AS s WHERE rowid = ((
    SELECT MAX(rowid) FROM allSels
  ) - (
    SELECT COUNT() * 2 - 1
    FROM undoItx u JOIN LATEST clickItx c
      ON u.timestep > c.timestep
  ));
"""

REALTIME_TWEETS = BRUSH + """\
CREATE EVENT TABLE tweets(
  tId TEXT, content TEXT, lat REAL, lon REAL
);
CREATE VIEW fixedBrushTweets AS
  SELECT t.tId, t.lat, t.lon FROM tweets t JOIN LATEST brushItx b
    ON is_within_box(t.lat, t.lon, b.*)
    AND t.timestep < b.timestep;
"""

REACTION_TIME = """\
CREATE EVENT TABLE menuDataItx(item TEXT);
CREATE EVENT TABLE clickItx(item TEXT);
CREATE VIEW skipUnintendedClick AS
  SELECT item FROM LATEST clickItx WHERE
    timestamp > (SELECT max(timestamp) FROM menuDataItx) + 200;
"""

# programs paired with the base tables their queries mention
ALL_LISTINGS = {
    "slider": SLIDER,
    "slider_async": SLIDER_ASYNC,
    "slider_latest_request": SLIDER_LATEST_REQUEST,
    "brush": BRUSH,
    "multi_select": MULTI_SELECT,
    "brush_vs_map": BRUSH_VS_MAP,
    "snapped_brush": SNAPPED_BRUSH,
    "brushed_countries": BRUSHED_COUNTRIES,
    "scroll": SCROLL,
    "reconfigure_order": RECONFIGURE_ORDER,
    "reconfigure_sample": RECONFIGURE_SAMPLE,
    "panning": PANNING,
    "zoom_histogram": ZOOM_HISTOGRAM,
    "zoom_scatter": ZOOM_SCATTER,
    "connect": CONNECT,
    "template_filter": TEMPLATE_FILTER,
    "undo": UNDO,
    "realtime_tweets": REALTIME_TWEETS,
    "reaction_time": REACTION_TIME,
}
